// Package a exercises the mapiterorder analyzer: triggering and
// non-triggering forms of order-sensitive map iteration.
package a

import (
	"math/rand"
	"sort"
)

// RNG mimics the simulator's named-stream generator type.
type RNG struct{}

// Intn mimics a stream draw.
func (*RNG) Intn(n int) int { return 0 }

func floatAccumulation(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "float accumulation into sum"
	}
	return sum
}

func floatRebind(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total = total + v // want "float accumulation into total"
	}
	return total
}

func stringBuild(m map[string]string) string {
	var out string
	for k := range m {
		out += k // want "string accumulation into out"
	}
	return out
}

func intAccumulationIsSafe(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v // associative: no diagnostic
	}
	return n
}

func unsortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside map iteration"
	}
	return keys
}

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // sorted below: no diagnostic
	}
	sort.Strings(keys)
	return keys
}

func collectThenSortSlice(m map[int]float64) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id) // sorted below: no diagnostic
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func rngDraw(m map[string]int, r *rand.Rand) int {
	var pick int
	for range m {
		pick = r.Intn(10) // want "RNG draw r.Intn inside map iteration"
	}
	return pick
}

func namedStreamDraw(m map[string]int, g *RNG) int {
	var pick int
	for range m {
		pick = g.Intn(10) // want "RNG draw g.Intn inside map iteration"
	}
	return pick
}

func sliceRangeIsSafe(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v // slice order is deterministic: no diagnostic
	}
	return sum
}

func mapWriteIsSafe(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v // target order is irrelevant: no diagnostic
	}
	return out
}

func nestedRanges(m map[string]map[string]float64) float64 {
	var sum float64
	for _, inner := range m {
		for _, v := range inner {
			sum += v // want "float accumulation into sum"
		}
	}
	return sum
}

func argminKeepsKey(m map[int]float64) int {
	best, bestVal := -1, 1e9
	for k, v := range m {
		if v < bestVal {
			best = k // want "map key k kept in best past the loop"
			bestVal = v
		}
	}
	return best
}

func keyUsedInsideLoopIsSafe(m map[int]float64) int {
	n := 0
	for k := range m {
		local := k // declared inside the loop: no diagnostic
		n += local
	}
	return n
}

// waiter holds a callback, as a broadcast-disk waiter does.
type waiter struct {
	dropped func(int)
}

func fieldCallback(m map[int][]waiter) {
	for k, ws := range m {
		for _, w := range ws {
			w.dropped(k) // want "call through func value w.dropped inside map iteration"
		}
	}
}

func paramCallback(m map[string]int, f func(int)) {
	for _, v := range m {
		f(v) // want "call through func value f inside map iteration"
	}
}

func localCallback(m map[string]int) {
	record := func(int) {}
	for _, v := range m {
		record(v) // want "call through func value record inside map iteration"
	}
}

func storedCallbacks(m map[string]func()) {
	for _, fn := range m {
		fn() // want "call through func value fn inside map iteration"
	}
}

func double(v int) int { return 2 * v }

// Len is a declared method.
func (w waiter) Len() int { return 0 }

func declaredCallsAreSafe(m map[string]int, w waiter) int {
	n := 0
	for _, v := range m {
		n += double(v) + w.Len() + len(m) + int(int64(v)) // declared function, method, builtin, conversion: no diagnostic
	}
	return n
}

func callbackOverSortedKeysIsSafe(m map[int]func()) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		m[k]() // slice order is deterministic: no diagnostic
	}
}
