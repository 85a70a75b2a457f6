// Mailboxes and buffer pools: the allocation-conscious core of the runtime.
//
// Delivery cost at paper scale (P = 1,024 ranks, tens of millions of
// messages) is dominated by three churn sources this file eliminates:
//
//   - map traffic: the queue map is hashed once per put and once per take —
//     the matched-receive wait loop holds the *msgQueue pointer across
//     wakeups instead of re-indexing the map, and a drained key is deleted
//     immediately (empty-queue reclamation), so a long-lived world's maps
//     stay at the size of its in-flight traffic, not its history;
//   - queue storage: emptied msgQueue carcasses (struct + backing array)
//     are recycled through a sync.Pool instead of being re-grown from nil
//     for every (src, comm, tag) stream;
//   - payload storage: SendMat/RecvMat lease wire buffers from size-classed
//     sync.Pools (see pool.go); phantom messages carry no payload at all —
//     the volume-mode fast path enqueues a plain Msg value, allocating
//     nothing in steady state.
//
// Ownership rule: a payload slice handed to Send belongs to the runtime
// until the matching Recv returns it to the receiving rank; only
// SendMat/RecvMat — which pack on send and copy out on receive — recycle
// wire buffers, so raw Send/Recv callers (collectives carrying metadata,
// RecvInts callers that retain the slice) keep ordinary Go ownership.
package smpi

import "sync"

// msgQueue is one (src, comm, tag) FIFO: messages in buf[head:]. The struct
// and its backing array are pooled; see take for the recycle point.
type msgQueue struct {
	buf  []Msg
	head int
}

var queuePool = sync.Pool{New: func() any { return new(msgQueue) }}

type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    map[msgKey]*msgQueue
	// waiters counts goroutines blocked in take (at most one in practice:
	// a mailbox belongs to one rank). put only signals when someone waits,
	// so the common deliver-before-receive case never touches the cond.
	waiters int
	// free is a one-slot queue cache in front of queuePool: a mailbox
	// cycles through one hot key at a time, and unlike the shared pool
	// this slot survives GC cycles (allocation-heavy replays collect
	// often enough to wipe sync.Pools mid-run).
	free *msgQueue
}

func newMailbox() *mailbox {
	mb := &mailbox{q: make(map[msgKey]*msgQueue)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// queueLocked returns the FIFO for k, leasing a recycled one if the key is
// new. Caller holds mb.mu.
func (mb *mailbox) queueLocked(k msgKey) *msgQueue {
	q := mb.q[k]
	if q == nil {
		if q = mb.free; q != nil {
			mb.free = nil
		} else {
			q = queuePool.Get().(*msgQueue)
		}
		mb.q[k] = q
	}
	return q
}

// reclaimLocked deletes a drained key and recycles its queue. Caller holds
// mb.mu and guarantees q is empty.
func (mb *mailbox) reclaimLocked(k msgKey, q *msgQueue) {
	delete(mb.q, k)
	q.buf = q.buf[:0]
	q.head = 0
	if mb.free == nil {
		mb.free = q
	} else {
		queuePool.Put(q)
	}
}

func (mb *mailbox) put(k msgKey, m Msg) {
	mb.mu.Lock()
	q := mb.queueLocked(k)
	q.buf = append(q.buf, m)
	if mb.waiters > 0 {
		mb.cond.Broadcast()
	}
	mb.mu.Unlock()
}

// take blocks until a message under k is available and pops it. The queue
// pointer is resolved once; the wait loop re-checks only its length. On
// abort the pending take panics with ErrAborted (see World.Abort for why
// the wake-up broadcast must hold this mutex).
func (mb *mailbox) take(w *World, k msgKey) Msg {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	q := mb.queueLocked(k)
	for q.head >= len(q.buf) {
		if w.aborted.Load() {
			// Don't strand the just-leased empty queue on the dead world.
			mb.reclaimLocked(k, q)
			panic(ErrAborted)
		}
		mb.waiters++
		mb.cond.Wait()
		mb.waiters--
	}
	return mb.popLocked(k, q)
}

// popLocked removes the head message, reclaiming the queue if that drained
// it. Caller holds mb.mu and guarantees q is non-empty.
func (mb *mailbox) popLocked(k msgKey, q *msgQueue) Msg {
	m := q.buf[q.head]
	q.buf[q.head] = Msg{} // release payload references to the GC
	q.head++
	if q.head == len(q.buf) {
		mb.reclaimLocked(k, q)
	}
	return m
}
