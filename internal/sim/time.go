// Package sim provides a deterministic, cooperative discrete-event
// simulation kernel.
//
// There is one event core (event.go): a value-typed Event and the heap
// that orders it by (time, priority). Engine runs simulated processes as
// coroutines over it, one at a time, so simulations are data-race free
// and fully reproducible: equal timestamps tie-break on a monotonically
// increasing schedule sequence. ShardedEngine runs flyweight actors over
// the same core, one heap per shard.
//
// Time is virtual and expressed in picoseconds (Time). Processes advance
// time by sleeping, waiting on Futures, receiving from Mailboxes, or
// holding Resources and Links.
package sim

import "fmt"

// Time is a point (or span) of virtual time in picoseconds. Picosecond
// granularity keeps sub-nanosecond transfer times representable (256 bytes
// at 200 GB/s is 1.28 ns) while an int64 still covers ~106 days.
type Time int64

// Convenient spans of virtual time.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats t with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// GBps converts a byte count moved over a span into gigabytes per second.
// It returns 0 for non-positive spans.
func GBps(bytes int64, span Time) float64 {
	if span <= 0 {
		return 0
	}
	return float64(bytes) / span.Seconds() / 1e9
}

// TimeForBytes returns the time needed to move n bytes at bwGBps
// gigabytes per second. It panics if bwGBps is not positive.
func TimeForBytes(n int64, bwGBps float64) Time {
	if bwGBps <= 0 {
		panic("sim: non-positive bandwidth")
	}
	return Time(float64(n) / (bwGBps * 1e9) * float64(Second))
}
