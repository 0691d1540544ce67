package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// TestKernelStressRandomizedSchedule drives the kernel with a randomized
// sequence of schedule / cancel / reschedule operations — both before Run
// and from inside firing callbacks — drawn from a named RNG stream, and
// checks the executive's contract against an independent model: events
// fire exactly once, in (time, sequence) order, at their clamped times,
// and cancelled events never fire. The handles of fired and cancelled
// events are kept and cancelled again later, after their heap slots may
// have passed to newer events; such a Cancel must report false and leave
// the newer event alone.
func TestKernelStressRandomizedSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 99, 20260805} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			stressKernel(t, seed)
		})
	}
}

// tracked mirrors one scheduled event in the test's model of the kernel.
type tracked struct {
	ev        Event
	at        time.Duration // clamped firing time the kernel promised
	cancelled bool
	fired     bool
}

func stressKernel(t *testing.T, seed int64) {
	rng := NewRNG(seed).Stream("kernel-stress")
	k := NewKernel()
	const horizon = 10 * time.Second

	var model []tracked
	type firing struct {
		id int // index into model
		at time.Duration
	}
	var fired []firing
	budget := 400 // cap on callback-scheduled events so the run terminates

	// recancel cancels the handle of one random fired or cancelled event
	// again, which must report that nothing was pending.
	recancel := func() {
		for try := 0; try < 8; try++ {
			i := rng.Intn(len(model))
			if m := model[i]; m.fired || m.cancelled {
				if m.ev.Cancel() {
					t.Fatalf("stale handle of event %d (fired %v, cancelled %v) cancelled a pending event",
						i, m.fired, m.cancelled)
				}
				return
			}
		}
	}

	// add schedules an event at absolute time t (which the kernel clamps
	// to its current clock) and registers it in the model.
	var add func(at time.Duration)
	add = func(at time.Duration) {
		id := len(model)
		eff := at
		if eff < k.Now() {
			eff = k.Now()
		}
		ev := k.At(at, func() {
			fired = append(fired, firing{id: id, at: k.Now()})
			model[id].fired = true
			// Mutate the schedule from inside the executive: follow-up
			// events and cancellations of still-pending peers.
			if budget > 0 && rng.Bool(0.4) {
				budget--
				add(k.Now() + rng.UniformDuration(0, horizon/4))
			}
			if rng.Bool(0.2) {
				cancelRandom(rng, model)
			}
			if rng.Bool(0.3) {
				recancel()
			}
		})
		model = append(model, tracked{ev: ev, at: eff})
	}

	// Pre-run phase: a burst of schedules at random times (some beyond the
	// horizon, some at duplicate times to exercise sequence-order ties),
	// interleaved with cancellations and reschedules.
	times := make([]time.Duration, 0, 300)
	for i := 0; i < 300; i++ {
		var at time.Duration
		if len(times) > 0 && rng.Bool(0.25) {
			at = times[rng.Intn(len(times))] // deliberate tie
		} else {
			at = rng.UniformDuration(0, horizon+horizon/5)
		}
		times = append(times, at)
		add(at)
		if rng.Bool(0.15) {
			cancelRandom(rng, model)
		}
		if rng.Bool(0.1) {
			recancel()
		}
		if rng.Bool(0.1) {
			// Reschedule: cancel a random pending event, schedule a
			// replacement at a fresh time.
			if cancelRandom(rng, model) {
				add(rng.UniformDuration(0, horizon))
			}
		}
	}
	// Double-cancel must be a no-op returning false.
	for i := range model {
		if model[i].cancelled {
			if model[i].ev.Cancel() {
				t.Fatal("second Cancel on the same event reported pending")
			}
			break
		}
	}

	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}

	// Model: the survivors with clamped time ≤ horizon, in (time, seq)
	// order. Model index order IS kernel sequence order — every At call
	// increments the kernel's sequence counter exactly once.
	var want []firing
	for id, m := range model {
		if !m.cancelled && m.at <= horizon {
			want = append(want, firing{id: id, at: m.at})
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].id < want[j].id
	})

	if len(fired) != len(want) {
		t.Fatalf("fired %d events, model expects %d", len(fired), len(want))
	}
	seen := make(map[int]bool, len(fired))
	for i, f := range fired {
		if seen[f.id] {
			t.Fatalf("event %d fired twice", f.id)
		}
		seen[f.id] = true
		if model[f.id].cancelled {
			t.Fatalf("cancelled event %d fired at %v", f.id, f.at)
		}
		if f.at != model[f.id].at {
			t.Fatalf("event %d fired at %v, scheduled for %v", f.id, f.at, model[f.id].at)
		}
		if i > 0 && fired[i-1].at > f.at {
			t.Fatalf("time went backwards: %v after %v", f.at, fired[i-1].at)
		}
		if f.id != want[i].id || f.at != want[i].at {
			t.Fatalf("firing %d = event %d at %v, model expects event %d at %v",
				i, f.id, f.at, want[i].id, want[i].at)
		}
	}
	if k.Now() != horizon {
		t.Errorf("clock at %v after Run, want horizon %v", k.Now(), horizon)
	}
}

// cancelRandom cancels one random still-pending, not-yet-cancelled event
// and records the cancellation in the model. It reports whether an event
// was actually cancelled.
func cancelRandom(rng *RNG, model []tracked) bool {
	if len(model) == 0 {
		return false
	}
	// Bounded probing keeps the RNG stream consumption finite even when
	// nothing is cancellable.
	for try := 0; try < 8; try++ {
		i := rng.Intn(len(model))
		if model[i].cancelled {
			continue
		}
		if model[i].ev.Cancel() {
			model[i].cancelled = true
			return true
		}
	}
	return false
}
