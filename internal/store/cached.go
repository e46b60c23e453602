package store

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// DefaultCacheEntries bounds a Cached tier when NewCached is given a
// non-positive capacity. Store entries are a few KB of JSON, so 4096
// entries is tens of MB — enough to absorb a sweep's working set.
const DefaultCacheEntries = 4096

// Cached is a read-through/write-back memory tier over another Backend.
// Get serves from memory when it can and populates memory from the
// backing store when it can't; Put lands in memory immediately (a Get
// that follows sees it with no disk round trip) and a background flusher
// writes it down to the backing store. Flush forces the write-back down
// and surfaces any asynchronous write error; Close flushes and stops the
// flusher.
//
// The cache holds at most max entries; least-recently-used clean entries
// are evicted first, and an entry is never evicted while its write-back
// is still owed. Because store entries are memo results (recomputable by
// design), a failed write-back is recorded and reported by Flush rather
// than crashing the serving path: the entry keeps being served from
// memory, and a later Put heals the durable copy.
type Cached struct {
	backing Backend
	max     int

	mu       sync.Mutex
	cond     *sync.Cond // broadcast after every write-back and when the queue drains
	entries  map[string]*centry
	lru      *list.List // front = most recently used
	dirty    []*centry  // FIFO write-back queue
	inflight string     // address of the write-back in flight, "" when none
	paused   int        // Usage calls holding the flusher off
	err      error      // first async write-back failure (sticky until Flush)

	wake    chan struct{}
	stop    chan struct{}
	stopped chan struct{}
	closed  bool
}

// centry is one cached blob. Guarded by Cached.mu; data is immutable once
// set (replaced wholesale on Put).
type centry struct {
	addr  string
	data  []byte
	dirty bool
	gen   int // bumped per Put; the flusher only clears dirty if unchanged
	elem  *list.Element
}

// NewCached wraps backing with a memory tier of at most max entries
// (<=0 takes DefaultCacheEntries) and starts the write-back flusher.
func NewCached(backing Backend, max int) *Cached {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	c := &Cached{
		backing: backing,
		max:     max,
		entries: make(map[string]*centry),
		lru:     list.New(),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.flusher()
	return c
}

func (c *Cached) Describe() string { return "cached(" + Describe(c.backing) + ")" }

// touchLocked moves e to the LRU front, inserting it if new.
func (c *Cached) touchLocked(e *centry) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
		return
	}
	e.elem = c.lru.PushFront(e)
	c.entries[e.addr] = e
	c.evictLocked()
}

// evictLocked drops least-recently-used clean entries until the cache
// fits. Dirty entries are skipped — their write-back is still owed — so
// under a stalled flusher the cache can exceed max by the dirty count.
func (c *Cached) evictLocked() {
	for over := len(c.entries) - c.max; over > 0; {
		evicted := false
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*centry)
			if e.dirty {
				continue
			}
			c.lru.Remove(el)
			delete(c.entries, e.addr)
			e.elem = nil
			over--
			evicted = true
			break
		}
		if !evicted {
			return // everything left is dirty
		}
	}
}

func (c *Cached) Get(addr string) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.entries[addr]; ok {
		c.touchLocked(e)
		data := e.data
		c.mu.Unlock()
		out := make([]byte, len(data))
		copy(out, data)
		return out, nil
	}
	c.mu.Unlock()

	raw, err := c.backing.Get(addr)
	if err != nil {
		return nil, err // ErrNotFound passes through; misses are not cached
	}
	c.mu.Lock()
	if _, ok := c.entries[addr]; !ok {
		c.touchLocked(&centry{addr: addr, data: raw})
	}
	c.mu.Unlock()
	out := make([]byte, len(raw))
	copy(out, raw)
	return out, nil
}

func (c *Cached) Put(addr string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		// A closed tier degrades to write-through so late writers (e.g. a
		// completion racing shutdown) still land durably.
		return c.backing.Put(addr, cp)
	}
	e, ok := c.entries[addr]
	if !ok {
		e = &centry{addr: addr}
	}
	e.data = cp
	e.gen++
	if !e.dirty {
		e.dirty = true
		c.dirty = append(c.dirty, e)
	}
	c.touchLocked(e)
	c.mu.Unlock()
	c.kick()
	return nil
}

func (c *Cached) Delete(addr string) error {
	c.mu.Lock()
	if e, ok := c.entries[addr]; ok {
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		delete(c.entries, addr)
		// Leave any queued write-back to the flusher; it re-checks the
		// entry table and skips deleted entries.
		e.dirty = false
		e.gen++
	}
	// A write-back of this address already in flight would land after the
	// backing delete and make the entry durable again; wait it out.
	for c.inflight == addr {
		c.cond.Wait()
	}
	c.mu.Unlock()
	return c.backing.Delete(addr)
}

// owedLocked snapshots the entries still waiting in the write-back queue
// (or in flight), mapped to their payload sizes.
func (c *Cached) owedLocked() map[string]int {
	owed := make(map[string]int)
	for _, e := range c.entries {
		if e.dirty {
			owed[e.addr] = len(e.data)
		}
	}
	return owed
}

// List merges the backing store's listing with entries still waiting in
// the write-back queue, so a Put is visible to List before it is durable.
// The queue is read first: an entry written down after that read is in
// the backing listing instead, so none falls between the two.
func (c *Cached) List() ([]string, error) {
	c.mu.Lock()
	owed := c.owedLocked()
	c.mu.Unlock()
	addrs, err := c.backing.List()
	if err != nil {
		return nil, err
	}
	for _, a := range addrs {
		delete(owed, a)
	}
	for a := range owed {
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// Usage totals the backing store and the owed write-backs, each address
// once. The flusher is held off for the call, so no entry moves from the
// queue to the backing store between the two reads; an owed entry that
// the backing already holds in an older version counts with its new size.
func (c *Cached) Usage() (int, int64, error) {
	c.mu.Lock()
	c.paused++
	for c.inflight != "" {
		c.cond.Wait()
	}
	owed := c.owedLocked()
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.paused--
		c.mu.Unlock()
		c.kick()
	}()
	entries, bytes, err := Usage(c.backing)
	if err != nil {
		return entries, bytes, err
	}
	for addr, n := range owed {
		old, err := c.backing.Get(addr)
		switch {
		case err == nil:
			bytes -= int64(len(old))
		case errors.Is(err, ErrNotFound):
			entries++
		default:
			return entries, bytes, err
		}
		bytes += int64(n)
	}
	return entries, bytes, nil
}

// kick wakes the flusher without blocking.
func (c *Cached) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// flusher is the single write-back goroutine: it drains the dirty queue
// FIFO, re-queueing entries overwritten mid-flight.
func (c *Cached) flusher() {
	defer close(c.stopped)
	for {
		c.mu.Lock()
		for len(c.dirty) == 0 || c.paused > 0 {
			c.cond.Broadcast()
			c.mu.Unlock()
			select {
			case <-c.wake:
			case <-c.stop:
				return
			}
			c.mu.Lock()
		}
		e := c.dirty[0]
		c.dirty = c.dirty[1:]
		if !e.dirty { // deleted while queued
			c.mu.Unlock()
			continue
		}
		c.inflight = e.addr
		data, gen := e.data, e.gen
		c.mu.Unlock()

		err := c.backing.Put(e.addr, data)

		c.mu.Lock()
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("store: write-back %q: %w", e.addr, err)
		}
		if e.gen != gen && e.dirty {
			c.dirty = append(c.dirty, e) // overwritten mid-flight; flush again
		} else {
			e.dirty = false
		}
		c.inflight = ""
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// Flush blocks until every owed write-back has been attempted and returns
// (and clears) the first asynchronous write failure recorded since the
// previous Flush.
func (c *Cached) Flush() error {
	c.kick()
	c.mu.Lock()
	defer c.mu.Unlock()
	for (len(c.dirty) > 0 || c.inflight != "") && !c.closed {
		c.cond.Wait()
	}
	err := c.err
	c.err = nil
	if c.closed && len(c.dirty) > 0 {
		err = errors.Join(err, errors.New("store: cache closed with unflushed entries"))
	}
	return err
}

// Close flushes the write-back queue and stops the flusher. The tier
// remains usable afterwards, degraded to write-through.
func (c *Cached) Close() error {
	err := c.Flush()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return err
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	<-c.stopped
	c.mu.Lock()
	c.cond.Broadcast() // release any Flush waiting out the drain
	c.mu.Unlock()
	return err
}
