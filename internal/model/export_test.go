package model

import "gpuddt/internal/sim"

// RunRecording is Run with sent called for every modelled message, in
// the order each rank sends them.
func RunRecording(o Options, sent func(from, to sim.ActorID, bytes int64)) (Result, error) {
	w, err := build(o)
	if err != nil {
		return Result{}, err
	}
	w.sent = sent
	w.se.Run()
	return w.finalize()
}
