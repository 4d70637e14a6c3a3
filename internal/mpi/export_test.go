package mpi

// RecordSends has w call sent for every send a collective schedule
// posts, in posting order, with the packed bytes.
func RecordSends(w *World, sent func(from, to int, bytes int64)) { w.sent = sent }
