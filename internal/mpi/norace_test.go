//go:build !race

package mpi_test

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
