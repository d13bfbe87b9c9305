package hot

// An SPSC mailbox shape: push into a fixed ring with overflow spilling
// into a retained slice, drain via cursors. The fixture pins what the
// analyzer must accept (amortized appends into retained backing, index
// arithmetic) and what it must reject (per-push allocation).

type mailbox struct {
	buf        []int64
	head, tail uint64
	spill      []int64
	spillHead  int
}

// push is the clean mailbox hot path: ring store or amortized spill
// append, no allocation once the spill has warmed up.
//
//tyr:hotpath
func (m *mailbox) push(v int64) {
	if len(m.spill) > 0 || m.tail-m.head >= uint64(len(m.buf)) {
		m.spill = append(m.spill, v)
		return
	}
	m.buf[m.tail&uint64(len(m.buf)-1)] = v
	m.tail++
}

// drain is the clean consumer side: cursor walks, no allocation.
//
//tyr:hotpath
func (m *mailbox) drain(sink *[]int64) {
	for m.head != m.tail {
		*sink = append(*sink, m.buf[m.head&uint64(len(m.buf)-1)])
		m.head++
	}
	for m.spillHead < len(m.spill) {
		*sink = append(*sink, m.spill[m.spillHead])
		m.spillHead++
	}
	m.spill = m.spill[:0]
	m.spillHead = 0
}

// pushBoxed is the seeded bad case: staging every overflow value in a
// fresh slice allocates per push — exactly what the mailbox contract
// (allocation-free steady state) forbids.
//
//tyr:hotpath
func (m *mailbox) pushBoxed(v int64) {
	if m.tail-m.head >= uint64(len(m.buf)) {
		box := []int64{v} // want `slice literal allocates`
		m.spill = append(m.spill, box...)
		return
	}
	m.buf[m.tail&uint64(len(m.buf)-1)] = v
	m.tail++
}
