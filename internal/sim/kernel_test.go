package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3*time.Second, func() { order = append(order, 3) })
	k.Schedule(1*time.Second, func() { order = append(order, 1) })
	k.Schedule(2*time.Second, func() { order = append(order, 2) })
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKernelBreaksTiesBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

func TestKernelClockAdvancesToEventTime(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.Schedule(5*time.Second, func() { at = k.Now() })
	if err := k.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5*time.Second {
		t.Errorf("event saw clock %v, want 5s", at)
	}
	if k.Now() != time.Minute {
		t.Errorf("clock after drain = %v, want horizon 1m", k.Now())
	}
}

func TestKernelHorizonStopsFutureEvents(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(10*time.Second, func() { fired = true })
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("event beyond horizon fired")
	}
	if k.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", k.Now())
	}
	// A later Run picks the event up.
	if err := k.Run(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

func TestKernelRejectsPastHorizon(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, func() {})
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := k.Run(time.Second); err == nil {
		t.Error("Run with past horizon succeeded, want error")
	}
}

func TestEventCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.Schedule(time.Second, func() { fired = true })
	if !ev.Cancel() {
		t.Error("Cancel on pending event returned false")
	}
	if ev.Cancel() {
		t.Error("second Cancel returned true")
	}
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	var zero Event
	if zero.Cancel() {
		t.Error("Cancel on the zero Event returned true")
	}
}

func TestEventCancelAfterFire(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(time.Second, func() {})
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ev.Cancel() {
		t.Error("Cancel after fire returned true")
	}
}

// TestEventStaleHandleCannotCancel fires event A, lets event B take the
// heap slot A freed, and checks that A's handle cannot cancel B.
func TestEventStaleHandleCannotCancel(t *testing.T) {
	k := NewKernel()
	a := k.Schedule(time.Second, func() {})
	if !k.Step() {
		t.Fatal("A did not fire")
	}
	fired := false
	b := k.Schedule(time.Second, func() { fired = true })
	if b.slot != a.slot {
		t.Fatalf("B took slot %d, want A's freed slot %d", b.slot, a.slot)
	}
	if a.Cancel() {
		t.Error("Cancel on a fired event's handle returned true")
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("a stale handle cancelled the event that reused its slot")
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	var count int
	for i := 1; i <= 5; i++ {
		k.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				k.Stop()
			}
		})
	}
	err := k.Run(time.Minute)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run err = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Errorf("events fired = %d, want 2", count)
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	k := NewKernel()
	var times []time.Duration
	k.Schedule(time.Second, func() {
		times = append(times, k.Now())
		k.Schedule(time.Second, func() {
			times = append(times, k.Now())
		})
	})
	if err := k.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel()
	var at time.Duration = -1
	k.Schedule(2*time.Second, func() {
		k.Schedule(-5*time.Second, func() { at = k.Now() })
	})
	if err := k.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 2*time.Second {
		t.Errorf("clamped event fired at %v, want 2s", at)
	}
}

func TestStep(t *testing.T) {
	k := NewKernel()
	var fired int
	k.Schedule(time.Second, func() { fired++ })
	ev := k.Schedule(2*time.Second, func() { fired++ })
	ev.Cancel()
	k.Schedule(3*time.Second, func() { fired++ })
	if !k.Step() {
		t.Fatal("first Step = false")
	}
	if fired != 1 {
		t.Fatalf("fired = %d after first step", fired)
	}
	if !k.Step() { // skips cancelled
		t.Fatal("second Step = false")
	}
	if fired != 2 {
		t.Fatalf("fired = %d after second step", fired)
	}
	if k.Step() {
		t.Fatal("Step on empty heap = true")
	}
}

func TestProcessedCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Processed() != 7 {
		t.Errorf("Processed = %d, want 7", k.Processed())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel()
		var fireTimes []time.Duration
		for _, d := range delays {
			k.Schedule(time.Duration(d)*time.Millisecond, func() {
				fireTimes = append(fireTimes, k.Now())
			})
		}
		if err := k.Run(time.Hour); err != nil {
			return false
		}
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEventTimeAndKernelPending checks when an event fires and that
// Pending counts a cancelled event until its time comes: cancellation is
// lazy.
func TestEventTimeAndKernelPending(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.Schedule(3*time.Second, func() { at = k.Now() })
	k.Schedule(2*time.Second, func() {}).Cancel()
	if k.Pending() != 2 {
		t.Errorf("Pending = %d, want 2 with one cancelled", k.Pending())
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Second {
		t.Errorf("event fired at %v, want 3s", at)
	}
	if k.Pending() != 0 {
		t.Errorf("Pending after drain = %d", k.Pending())
	}
}

// TestKernelScheduleFireAllocs pins scheduling and firing a pre-bound func
// at zero allocations once the heap and slot table have grown.
func TestKernelScheduleFireAllocs(t *testing.T) {
	k := NewKernel()
	n := 0
	fn := func() { n++ }
	for i := 0; i < 4; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	for k.Step() {
	}
	avg := testing.AllocsPerRun(200, func() {
		ev := k.Schedule(time.Millisecond, fn)
		k.Schedule(0, fn)
		ev.Cancel()
		for k.Step() {
		}
	})
	if avg != 0 {
		t.Errorf("schedule, cancel and fire allocate %.1f per run, want 0", avg)
	}
	if n != 4+201 {
		t.Errorf("fired %d events, want %d", n, 4+201)
	}
}
