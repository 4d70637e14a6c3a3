//go:build race

package mpi_test

// raceDetector reports a -race build, whose instrumented code makes
// objects the plain build does not.
const raceDetector = true
