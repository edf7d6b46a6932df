package bench

// CheckpointCap is the per-Runner snapshot budget.
const CheckpointCap = checkpointCap

// CheckpointTicks returns the ticks of the golden checkpoints r holds and
// their total snapshot bytes.
func (r *Runner) CheckpointTicks() (ticks []int, bytes int) {
	for _, cp := range r.checkpoints {
		ticks = append(ticks, cp.tick)
		bytes += cp.snap.bytes()
	}
	return ticks, bytes
}

// ReplayInjected is RunInjected without resumption: the run starts from
// Reset and replays the golden prefix. It is the oracle a resumed run is
// checked against.
func (r *Runner) ReplayInjected(tick int, inject func()) RawResult {
	return r.run(newCtx(tick, inject, r.Budget(), r.p), nil, true)
}
