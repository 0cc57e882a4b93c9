// Package alupipe models the ALU pipeline of §4.2: a single-entry,
// single-exit pipelined chain of ALUs. To the scheduler it looks like a
// pipelined multi-cycle functional unit: it accepts at most one operation
// per cycle, carries a mini-graph down its stages one instruction per stage
// (two with pair-wise collapsing), and drives a single output selected from
// the unlatched outputs of every stage. Because the output is shared, two
// operations whose results emerge in the same cycle conflict; the scheduler
// avoids this at issue time using the MGHT output latency (LAT), which this
// package tracks as a per-cycle output-port reservation ring.
package alupipe

// Pipe is one ALU pipeline instance.
type Pipe struct {
	depth   int
	outBusy []bool // ring: output port reserved at cycle c
	mask    int64  // len(outBusy)-1; the ring is a power of two
	ring    int64

	Accepted  int64 // operations entered
	OutsTaken int64
}

// New builds a pipeline with the given stage count (the paper uses 4-stage
// pipelines in place of two of the baseline's four ALUs). The reservation
// ring is sized to the next power of two so the per-cycle slot math is a
// mask instead of a division.
func New(depth int) *Pipe {
	size := 1
	for size < 4*(depth+2) {
		size <<= 1
	}
	return &Pipe{depth: depth, outBusy: make([]bool, size), mask: int64(size - 1)}
}

// CanAccept reports whether an operation entering at cycle now with output
// latency outLat (1..depth for mini-graphs; 1 for singleton ALU ops, which
// execute in the first stage with no penalty) can be scheduled: the entry
// slot is implicitly free (one per cycle is enforced by the issue loop) and
// the output port at now+outLat must be unreserved.
func (p *Pipe) CanAccept(now int64, outLat int) bool {
	if outLat < 1 || outLat > p.depth {
		return false
	}
	return !p.outBusy[(now+int64(outLat))&p.mask]
}

// Accept reserves the output port for an operation entering at now.
func (p *Pipe) Accept(now int64, outLat int) {
	p.outBusy[(now+int64(outLat))&p.mask] = true
	p.Accepted++
	p.OutsTaken++
}

// Release clears a reservation (used when a mini-graph replays after an
// interior-load miss before producing its output).
func (p *Pipe) Release(at int64) {
	p.outBusy[at&p.mask] = false
}

// Tick advances the ring: the slot for the cycle that just passed is
// recycled. Call once per simulated cycle with the new current cycle.
func (p *Pipe) Tick(now int64) {
	// Clear the slot that is now exactly one full ring behind.
	p.outBusy[(now-1)&p.mask] = false
	p.ring = now
}
