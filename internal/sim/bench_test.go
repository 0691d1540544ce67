package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelScheduleRun measures raw event throughput of the kernel.
func BenchmarkKernelScheduleRun(b *testing.B) {
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if k.Pending() > 10000 {
			if err := k.Run(k.Now() + time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := k.Run(k.Now() + time.Hour); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChannelSend measures FCFS channel churn: one send and, amortised,
// one completion per op.
func BenchmarkChannelSend(b *testing.B) {
	k := NewKernel()
	c := NewChannel(k, func(*int) {})
	for i := 0; i < b.N; i++ {
		c.Send(i, time.Microsecond)
		if c.QueueLen() > 1000 {
			if err := k.Run(k.Now() + time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := k.Run(k.Now() + time.Hour); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRNGExp measures the exponential sampler used per request.
func BenchmarkRNGExp(b *testing.B) {
	g := NewRNG(1).Stream("bench")
	for i := 0; i < b.N; i++ {
		_ = g.Exp(time.Second)
	}
}
