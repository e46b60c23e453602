package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// backends under test, each built fresh per run. Every Backend in the
// package must pass the same conformance suite.
func testBackends(t *testing.T) map[string]func() Backend {
	t.Helper()
	return map[string]func() Backend{
		"dir": func() Backend {
			d, err := NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"mem": func() Backend { return NewMem() },
		"sharded": func() Backend {
			var names []string
			var kids []Backend
			for i := 0; i < 4; i++ {
				d, err := NewDir(filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, fmt.Sprintf("shard-%d", i))
				kids = append(kids, d)
			}
			s, err := NewSharded(names, kids)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"cached-mem": func() Backend {
			c := NewCached(NewMem(), 8)
			t.Cleanup(func() { c.Close() })
			return c
		},
		"cached-dir": func() Backend {
			d, err := NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c := NewCached(d, 8)
			t.Cleanup(func() { c.Close() })
			return c
		},
	}
}

// TestBackendConformance drives every backend through the Get/Put/Delete/
// List contract.
func TestBackendConformance(t *testing.T) {
	for name, build := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := build()
			addr1, addr2 := Addr("key-one"), Addr("key-two")

			if _, err := b.Get(addr1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
			}
			if err := b.Delete(addr1); err != nil {
				t.Fatalf("Delete(absent) = %v, want nil", err)
			}
			if err := b.Put(addr1, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put(addr2, []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Get(addr1); err != nil || string(got) != "v1" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			if err := b.Put(addr1, []byte("v1b")); err != nil { // overwrite
				t.Fatal(err)
			}
			if got, _ := b.Get(addr1); string(got) != "v1b" {
				t.Fatalf("overwrite lost: got %q", got)
			}
			addrs, err := b.List()
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(addrs)
			want := []string{addr1, addr2}
			sort.Strings(want)
			if len(addrs) != 2 || addrs[0] != want[0] || addrs[1] != want[1] {
				t.Fatalf("List = %v, want %v", addrs, want)
			}
			if err := b.Delete(addr1); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get(addr1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
			}
			if f, ok := b.(flusher); ok {
				if err := f.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			entries, bytes, err := Usage(b)
			if err != nil {
				t.Fatal(err)
			}
			if entries != 1 || bytes <= 0 {
				t.Fatalf("Usage = %d entries / %d bytes, want 1 entry", entries, bytes)
			}
		})
	}
}

// TestShardedRouting asserts every address resolves to exactly one shard,
// stably, and that the composite reads back what it wrote from the owning
// child only.
func TestShardedRouting(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	kids := make([]Backend, len(names))
	mems := make([]*Mem, len(names))
	for i := range kids {
		mems[i] = NewMem()
		kids[i] = mems[i]
	}
	s, err := NewSharded(names, kids)
	if err != nil {
		t.Fatal(err)
	}
	perShard := map[string]int{}
	for i := 0; i < 500; i++ {
		addr := Addr(fmt.Sprintf("key-%d", i))
		if err := s.Put(addr, []byte("x")); err != nil {
			t.Fatal(err)
		}
		owner := s.Shard(addr)
		perShard[owner]++
		// The blob must live on exactly the owning child.
		found := 0
		for i, n := range names {
			if _, err := mems[i].Get(addr); err == nil {
				found++
				if n != owner {
					t.Fatalf("addr %s stored on %s, owner is %s", addr, n, owner)
				}
			}
		}
		if found != 1 {
			t.Fatalf("addr %s present on %d shards", addr, found)
		}
	}
	for _, n := range names {
		if perShard[n] == 0 {
			t.Fatalf("shard %s received no entries: %v", n, perShard)
		}
	}
}

// TestCachedWriteBack asserts the write-back contract: a Put is visible to
// Get and List immediately, and lands durably in the backing store by
// Flush.
func TestCachedWriteBack(t *testing.T) {
	back := NewMem()
	c := NewCached(back, 4)
	defer c.Close()
	addr := Addr("wb")
	if err := c.Put(addr, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(addr); err != nil || string(got) != "hello" {
		t.Fatalf("Get after Put = %q, %v", got, err)
	}
	addrs, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != addr {
		t.Fatalf("List after Put = %v", addrs)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := back.Get(addr); err != nil || string(got) != "hello" {
		t.Fatalf("backing after Flush = %q, %v", got, err)
	}
}

// TestCachedReadThroughAndEviction: a backing entry populates the memory
// tier on first Get, and clean entries are evicted at capacity while
// remaining servable from the backing store.
func TestCachedReadThroughAndEviction(t *testing.T) {
	back := NewMem()
	for i := 0; i < 10; i++ {
		back.Put(Addr(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	c := NewCached(back, 4)
	defer c.Close()
	for i := 0; i < 10; i++ {
		got, err := c.Get(Addr(fmt.Sprintf("k%d", i)))
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("read-through k%d = %q, %v", i, got, err)
		}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", n)
	}
	// Everything is still servable (from backing after eviction).
	for i := 0; i < 10; i++ {
		if _, err := c.Get(Addr(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("post-eviction Get k%d: %v", i, err)
		}
	}
}

// TestCachedConcurrent hammers the tier from several goroutines so the
// race detector can chew on the flusher/accessor interleavings.
func TestCachedConcurrent(t *testing.T) {
	c := NewCached(NewMem(), 16)
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				addr := Addr(fmt.Sprintf("k%d", i%32))
				switch i % 3 {
				case 0:
					c.Put(addr, []byte(fmt.Sprintf("g%d-%d", g, i)))
				case 1:
					c.Get(addr)
				default:
					c.List()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// gatedBackend is a Mem that lets writes through one at a time: each Put
// announces its address on entered and blocks until the test sends a
// token on release. With holdList set, List does the same after reading
// the map, announcing "list". A test thus holds a write-back (or a
// listing) at an exact point and forces an interleaving instead of
// hoping the scheduler finds it. Closing done opens every gate, so a
// failed test still shuts its cache down.
type gatedBackend struct {
	*Mem
	entered  chan string
	release  chan struct{}
	done     chan struct{}
	holdList bool
}

// newGatedCache builds a write-back tier over a gatedBackend and closes
// both when the test ends.
func newGatedCache(t *testing.T) (*gatedBackend, *Cached) {
	g := &gatedBackend{Mem: NewMem(), entered: make(chan string),
		release: make(chan struct{}), done: make(chan struct{})}
	c := NewCached(g, 8)
	t.Cleanup(func() {
		close(g.done)
		c.Close()
	})
	return g, c
}

func (g *gatedBackend) hold(event string) {
	select {
	case g.entered <- event:
	case <-g.done:
		return
	}
	select {
	case <-g.release:
	case <-g.done:
	}
}

func (g *gatedBackend) Put(addr string, data []byte) error {
	g.hold(addr)
	return g.Mem.Put(addr, data)
}

func (g *gatedBackend) List() ([]string, error) {
	addrs, err := g.Mem.List()
	if g.holdList {
		g.hold("list")
	}
	return addrs, err
}

// until spins (yielding, no sleeps) until cond holds under c's lock.
func until(c *Cached, cond func() bool) {
	for {
		c.mu.Lock()
		ok := cond()
		c.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// TestCachedDeleteDuringWriteBack: a Delete issued while the flusher is
// writing the same entry down must not let that write-back land after
// the backing delete and resurrect the entry.
func TestCachedDeleteDuringWriteBack(t *testing.T) {
	g, c := newGatedCache(t)
	addr := Addr("doomed")
	if err := c.Put(addr, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := <-g.entered; got != addr { // write-back now in flight
		t.Fatalf("write-back of %q, want %q", got, addr)
	}
	done := make(chan error, 1)
	go func() { done <- c.Delete(addr) }()
	// Delete drops the entry from the table and parks on the in-flight
	// write-back without releasing the lock in between.
	until(c, func() bool { _, ok := c.entries[addr]; return !ok })
	g.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Mem.Get(addr); !errors.Is(err, ErrNotFound) {
		t.Fatalf("backing Get(deleted) = %v, want ErrNotFound: the write-back resurrected it", err)
	}
	if _, err := c.Get(addr); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
	}
}

// TestCachedListDuringWriteBack: an entry the flusher writes down (and
// marks clean) while List is between the backing listing and the
// write-back queue must still be listed.
func TestCachedListDuringWriteBack(t *testing.T) {
	g, c := newGatedCache(t)
	addr := Addr("moving")
	if err := c.Put(addr, []byte("v")); err != nil {
		t.Fatal(err)
	}
	<-g.entered // write-back in flight; the entry is still owed
	g.holdList = true
	got := make(chan []string, 1)
	go func() {
		addrs, err := c.List()
		if err != nil {
			t.Error(err)
		}
		got <- addrs
	}()
	if ev := <-g.entered; ev != "list" { // backing listed before the write-back landed
		t.Fatalf("event %q, want list", ev)
	}
	g.release <- struct{}{}           // the write-back lands ...
	if err := c.Flush(); err != nil { // ... and the entry is clean
		t.Fatal(err)
	}
	g.release <- struct{}{} // List resumes
	if addrs := <-got; len(addrs) != 1 || addrs[0] != addr {
		t.Fatalf("List = %v, want [%s]", addrs, addr)
	}
}

// TestCachedUsageDuringWriteBack: Usage counts every address once — an
// entry whose write-back is in flight when Usage starts, and an owed
// overwrite of an entry the backing already holds.
func TestCachedUsageDuringWriteBack(t *testing.T) {
	g, c := newGatedCache(t)
	a, b := Addr("a"), Addr("b")
	c.Put(a, []byte("v1"))
	<-g.entered
	g.release <- struct{}{}
	if err := c.Flush(); err != nil { // a = "v1" is durable
		t.Fatal(err)
	}
	c.Put(b, []byte("bb"))
	<-g.entered             // b's write-back in flight
	c.Put(a, []byte("v22")) // owed overwrite, queued behind b
	type usage struct {
		entries int
		bytes   int64
	}
	got := make(chan usage, 1)
	go func() {
		n, sz, err := c.Usage()
		if err != nil {
			t.Error(err)
		}
		got <- usage{n, sz}
	}()
	until(c, func() bool { return c.paused > 0 }) // Usage holds the flusher off
	g.release <- struct{}{}                       // b lands while Usage waits on it
	if u, want := <-got, (usage{2, 5}); u != want {
		t.Fatalf("Usage = %+v, want %+v (a: 3 bytes owed, b: 2 bytes)", u, want)
	}
	if ev := <-g.entered; ev != a { // the flusher resumes with a
		t.Fatalf("write-back of %q, want %q", ev, a)
	}
	g.release <- struct{}{}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, sz, err := c.Usage(); err != nil || n != 2 || sz != 5 {
		t.Fatalf("Usage after flush = %d entries / %d bytes, %v; want 2 / 5", n, sz, err)
	}
}

// TestStoreOverShardedCached runs the full Store envelope logic over the
// scaled-out composition and confirms cross-handle visibility: a second
// Store over the same shard directories (a different coordinator process)
// sees entries the first one flushed.
func TestStoreOverShardedCached(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "s0"), filepath.Join(root, "s1")}
	st, err := OpenSharded(dirs, 64)
	if err != nil {
		t.Fatal(err)
	}
	type payload struct{ N int }
	for i := 0; i < 20; i++ {
		if err := st.Put(fmt.Sprintf("cell-%d", i), payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// A second process's handle over the same shards.
	st2, err := OpenSharded(dirs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var p payload
		hit, err := st2.Get(fmt.Sprintf("cell-%d", i), &p)
		if err != nil || !hit || p.N != i {
			t.Fatalf("cross-handle get cell-%d: hit=%v p=%+v err=%v", i, hit, p, err)
		}
	}
	// Both shard directories must actually hold entries.
	for _, d := range dirs {
		dir, err := NewDir(d)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := dir.Usage()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("shard %s holds no entries — routing sent everything elsewhere", d)
		}
	}
}
