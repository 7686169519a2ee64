package federated

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"exdra/internal/fedrpc"
)

// This file implements deferred federated instructions (DESIGN.md §3.2).
// An operation whose only output is a worker-bound federated matrix reads
// nothing back, so it does not call out: its per-worker requests join a
// FIFO per worker address, and the next batch to that address carries them
// as its prefix. A chain of such operations ending in a GET costs one
// round trip per worker instead of one per operation. Output IDs are
// allocated when the operation is issued, so the program holds valid
// handles at once; shape and scheme errors are found locally and still
// return at once.

// DeferredError reports a queued request that the worker rejected when the
// queue was flushed by a later operation. It names the operation that
// queued the request, not the one that flushed it.
type DeferredError struct {
	Addr   string // worker address
	Opcode string // instruction opcode, or the request type of a queued PUT
	Op     string // the federated operation that queued the request
	Err    error  // the worker's error
}

func (e *DeferredError) Error() string {
	return fmt.Sprintf("federated: %s %s (deferred from %s): %v", e.Addr, e.Opcode, e.Op, e.Err)
}

// Unwrap returns the worker's error.
func (e *DeferredError) Unwrap() error { return e.Err }

// queued is one deferred request and the operation that queued it.
type queued struct {
	req fedrpc.Request
	op  string
}

// addrQueue is the deferred-request FIFO of one worker address.
type addrQueue struct {
	pending []queued // guarded by Coordinator.qmu
	// flight is held while a batch carrying a non-empty prefix is in
	// flight. Every other batch to the address waits for it before it is
	// sent, so no batch overtakes the queued requests it may depend on —
	// neither a concurrent call on the same coordinator nor a second
	// partition at the same address within one parallelCall.
	flight sync.Mutex
}

// queueFor returns addr's queue, creating it if needed.
func (c *Coordinator) queueFor(addr string) *addrQueue {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.queueLocked(addr)
}

func (c *Coordinator) queueLocked(addr string) *addrQueue {
	q, ok := c.queues[addr]
	if !ok {
		q = &addrQueue{}
		c.queues[addr] = q
	}
	return q
}

// enqueue defers, for each partition, the requests build returns: they
// join the partition address's queue in partition order. build runs at
// once, so the output IDs it allocates are valid handles on return.
func (c *Coordinator) enqueue(op string, parts []Partition, build func(i int, p Partition) []fedrpc.Request) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return fmt.Errorf("federated: coordinator is closed")
	}
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for i, p := range parts {
		q := c.queueLocked(p.Addr)
		for _, r := range build(i, p) {
			q.pending = append(q.pending, queued{req: r, op: op})
		}
	}
	return nil
}

// dropQueues discards every queued request. ClearAll calls it: a CLEAR
// removes whatever the queued requests would have bound.
func (c *Coordinator) dropQueues() {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for _, q := range c.queues {
		q.pending = nil
	}
}

// send issues reqs to addr through the retry funnel (callCtx) with the
// address's queued requests as the batch's prefix, and returns the
// responses to reqs alone. carried lists the queued requests that
// travelled in the same batch as reqs, so a failed caller can reclaim
// their outputs. A queued request the worker rejects fails the call with a
// *DeferredError.
//
// HEALTH pings never carry the queue. A batch that may not be retried
// (EXEC_UDF) sends the queue first as its own, retryable, batch: the UDF
// stays fail-fast and the queued instructions keep their retries.
func (c *Coordinator) send(ctx context.Context, addr string, reqs []fedrpc.Request) (resps []fedrpc.Response, carried []queued, err error) {
	if healthBatch(reqs) {
		resps, err = c.callCtx(ctx, addr, reqs)
		return resps, nil, err
	}
	q := c.queueFor(addr)
	q.flight.Lock()
	c.qmu.Lock()
	prefix := q.pending
	q.pending = nil
	c.qmu.Unlock()
	if len(prefix) == 0 {
		// Waiting for the lock was enough: no queued request is in
		// flight, so this batch may run alongside others.
		q.flight.Unlock()
		resps, err = c.callCtx(ctx, addr, reqs)
		return resps, nil, err
	}
	// flight is held across the exchange by design: a batch sent while
	// the prefix is in flight could overtake an instruction it reads.
	// It is a per-address lock taken before any pooled connection, and
	// the exchange is bounded by the call budget and the transport timeout.
	defer q.flight.Unlock()
	batch := requests(prefix)
	if !RetryableBatch(reqs) {
		all, err := c.callCtx(ctx, addr, batch)
		if err == nil {
			err = deferredError(addr, prefix, all)
		}
		if err != nil {
			return nil, prefix, err
		}
		resps, err = c.callCtx(ctx, addr, reqs)
		return resps, nil, err
	}
	all, err := c.callCtx(ctx, addr, append(batch, reqs...))
	if err == nil {
		err = deferredError(addr, prefix, all)
	}
	if err != nil {
		return nil, prefix, err
	}
	return all[len(prefix):], prefix, nil
}

// deferredError returns a *DeferredError for the first queued request in
// prefix that the worker rejected, or nil.
func deferredError(addr string, prefix []queued, resps []fedrpc.Response) error {
	for i, d := range prefix {
		if resps[i].OK {
			continue
		}
		opcode := d.req.Type.String()
		if d.req.Inst != nil {
			opcode = d.req.Inst.Opcode
		}
		return &DeferredError{Addr: addr, Opcode: opcode, Op: d.op, Err: errors.New(resps[i].Err)}
	}
	return nil
}

// requests returns the requests of a queue prefix.
func requests(qs []queued) []fedrpc.Request {
	out := make([]fedrpc.Request, len(qs))
	for i, d := range qs {
		out[i] = d.req
	}
	return out
}
