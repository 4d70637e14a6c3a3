//go:build race

package bench_test

// raceDetector reports a -race build, whose shadow memory multiplies
// the footprint of every world a test builds.
const raceDetector = true
