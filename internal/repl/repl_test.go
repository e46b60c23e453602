package repl

import (
	"testing"
	"testing/quick"

	"drishti/internal/mem"
)

func TestLRUVictimIsOldest(t *testing.T) {
	l := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		l.OnFill(0, w, Access{})
	}
	l.OnHit(0, 0, Access{})
	l.OnHit(0, 2, Access{})
	if v := l.Victim(0, Access{}); v != 1 {
		t.Fatalf("victim %d, want 1 (oldest untouched)", v)
	}
}

func TestLRUPropertyVictimNeverMostRecent(t *testing.T) {
	check := func(ops []uint8) bool {
		l := NewLRU(2, 4)
		last := -1
		for _, op := range ops {
			way := int(op % 4)
			if op%2 == 0 {
				l.OnHit(0, way, Access{})
			} else {
				l.OnFill(0, way, Access{})
			}
			last = way
		}
		if last < 0 {
			return true
		}
		return l.Victim(0, Access{}) != last
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomVictimInRange(t *testing.T) {
	r := NewRandom(8, 1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Victim(0, Access{})
		if v < 0 || v >= 8 {
			t.Fatalf("victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 8 {
		t.Fatalf("random victim only covered %d ways", len(seen))
	}
}

func TestSRRIPPromotionAndAging(t *testing.T) {
	s := NewSRRIP(1, 2)
	s.OnFill(0, 0, Access{})
	s.OnFill(0, 1, Access{})
	s.OnHit(0, 0, Access{}) // way 0 → rrpv 0
	// Way 1 sits at rrpv 2; victim search must age until it reaches 3.
	if v := s.Victim(0, Access{}); v != 1 {
		t.Fatalf("victim %d, want 1", v)
	}
}

func TestSRRIPInsertsNotMRU(t *testing.T) {
	s := NewSRRIP(1, 2)
	s.OnFill(0, 0, Access{})
	s.OnHit(0, 0, Access{}) // protect way 0
	s.OnFill(0, 1, Access{})
	if v := s.Victim(0, Access{}); v != 1 {
		t.Fatalf("fresh long-rereference fill should lose to a promoted line; victim %d", v)
	}
}

func TestBRRIPMostlyDistant(t *testing.T) {
	b := NewBRRIP(1, 4)
	distant := 0
	for i := 0; i < 320; i++ {
		b.OnFill(0, 0, Access{})
		if b.rrpv[0] == rrpvMax {
			distant++
		}
	}
	if distant < 280 {
		t.Fatalf("BRRIP inserted near too often: %d/320 distant", distant)
	}
}

func TestDIPDuel(t *testing.T) {
	d := NewDIP(64, 4, 1)
	// Misses in LRU-leader sets push PSEL toward BIP.
	var lruLeader int = -1
	for s := 0; s < 64; s++ {
		if d.leaderA[s] {
			lruLeader = s
			break
		}
	}
	if lruLeader < 0 {
		t.Fatal("no LRU leader sets")
	}
	before := d.psel
	d.OnAccess(lruLeader, Access{Type: mem.Load}, false)
	if d.psel != before+1 {
		t.Fatalf("PSEL did not move on leader miss: %d → %d", before, d.psel)
	}
	// Hits must not move PSEL.
	before = d.psel
	d.OnAccess(lruLeader, Access{Type: mem.Load}, true)
	if d.psel != before {
		t.Fatal("PSEL moved on hit")
	}
}

func TestDIPBimodalInsertsAtLRU(t *testing.T) {
	d := NewDIP(512, 2, 1)
	// Force BIP selection.
	d.psel = d.pselMax
	var follower int = -1
	for s := 0; s < 512; s++ {
		if !d.leaderA[s] && !d.leaderB[s] {
			follower = s
			break
		}
	}
	d.lru.OnFill(follower, 0, Access{})
	d.OnFill(follower, 1, Access{}) // bimodal: stays at LRU stamp 0
	if v := d.Victim(follower, Access{}); v != 1 {
		t.Fatalf("bimodal insert should be the next victim; got way %d", v)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{NewLRU(2, 2), "lru"},
		{NewRandom(2, 1), "random"},
		{NewSRRIP(2, 2), "srrip"},
		{NewBRRIP(2, 2), "brrip"},
		{NewDIP(64, 2, 1), "dip"},
	}
	for _, c := range cases {
		if c.p.Name() != c.want {
			t.Fatalf("Name() = %q, want %q", c.p.Name(), c.want)
		}
	}
}

func TestVictimAlwaysValidProperty(t *testing.T) {
	// Whatever access history, every basic policy returns a way in range.
	policies := []Policy{NewLRU(4, 4), NewSRRIP(4, 4), NewBRRIP(4, 4), NewDIP(4, 4, 9), NewRandom(4, 3)}
	check := func(ops []uint16) bool {
		for _, p := range policies {
			for _, op := range ops {
				set := int(op) % 4
				way := int(op>>2) % 4
				switch op % 3 {
				case 0:
					p.OnFill(set, way, Access{})
				case 1:
					p.OnHit(set, way, Access{})
				default:
					p.OnEvict(set, way, 0, 0)
				}
			}
			for set := 0; set < 4; set++ {
				if v := p.Victim(set, Access{}); v < 0 || v >= 4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
