package main

import "time"

// The host's speed drifts: other tenants of the machine change the cost of
// a goroutine switch by up to 1.5x for minutes at a time, while pure ALU
// work stays within 4% (README.md, "Why calibrate"). The benchmark times a
// fixed goroutine ping-pong around every measured stretch and reports host
// time at the reference speed. The ping-pong is this package's own code, so
// a change to the simulator cannot move it.
const (
	// calRoundTrips is one calibration: channel round trips between two
	// goroutines, the operation the sim.Proc handoff is made of.
	calRoundTrips = 10_000
	// refRoundTrip is one round trip on the reference host (2-vCPU x86-64
	// VM, Go 1.24, GOMAXPROCS=1) when no other tenant contends.
	refRoundTrip = 450 * time.Nanosecond
)

// slowness times one calibration and returns the host's current cost
// relative to the reference: 1 is reference speed, 1.5 is 50% slower.
func slowness() float64 {
	a, b := make(chan int), make(chan int)
	go func() {
		for v := range a {
			b <- v
		}
		close(b)
	}()
	t := time.Now()
	for i := 0; i < calRoundTrips; i++ {
		a <- i
		<-b
	}
	elapsed := time.Since(t)
	close(a)
	<-b
	return float64(elapsed) / float64(calRoundTrips*refRoundTrip)
}
