// Tests for the two crash-modelling kinds: torn writes (prefix-surviving
// failures with a deterministic surviving fraction) and process crashes
// (exact-call-index aborts, observed from a re-exec'd child).

package fault

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"testing"
)

func TestTornInjection(t *testing.T) {
	p := NewPlan(11).Add(Rule{Site: SiteShardSave, Kind: KindTorn, Rate: 1})
	restore := Activate(p)
	defer restore()
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		err := Inject(SiteShardSave)
		var torn *TornError
		if !errors.As(err, &torn) {
			t.Fatalf("call %d: got %v, want *TornError", i+1, err)
		}
		if !errors.Is(err, ErrInjected) || !IsTransient(err) {
			t.Fatalf("torn error not transient/ErrInjected: %v", err)
		}
		if torn.Frac < 0 || torn.Frac >= 1 {
			t.Fatalf("torn fraction %v outside [0, 1)", torn.Frac)
		}
		seen[torn.Frac] = true
	}
	if len(seen) < 10 {
		t.Fatalf("torn fractions barely vary: %d distinct over 50 calls", len(seen))
	}
	st := p.Stats()
	if len(st) != 1 || st[0].Torn != 50 {
		t.Fatalf("stats = %+v, want 50 torn fires", st)
	}
}

func TestTornFractionDeterministic(t *testing.T) {
	frac := func(seed int64) []float64 {
		p := NewPlan(seed).Add(Rule{Site: SiteShardSave, Kind: KindTorn, Rate: 1})
		var out []float64
		for i := 0; i < 20; i++ {
			var torn *TornError
			if !errors.As(p.inject(context.Background(), SiteShardSave), &torn) {
				t.Fatal("torn rule at rate 1 did not fire")
			}
			out = append(out, torn.Frac)
		}
		return out
	}
	a, b := frac(5), frac(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v != %v", i, a[i], b[i])
		}
	}
	c := frac(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical torn fractions")
	}
}

func TestParsePlanCrashAndTorn(t *testing.T) {
	p, err := ParsePlan("store.shard.save:torn:0.25, store.shard.save:crash:12", 3)
	if err != nil {
		t.Fatal(err)
	}
	rules := p.rules[SiteShardSave]
	if len(rules) != 2 || rules[0].Kind != KindTorn || rules[1].Kind != KindCrash || rules[1].Call != 12 {
		t.Fatalf("rules = %+v", rules)
	}
	if got := p.String(); got != "store.shard.save:torn:0.25,store.shard.save:crash:12" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{
		"store.shard.save:crash:0",      // call indexes are 1-based
		"store.shard.save:crash:-3",     // negative
		"store.shard.save:crash:0.5",    // not an index
		"store.shard.save:crash:2:5ms",  // delay on a non-latency rule
		"store.shard.save:torn:1.5",     // rate out of range
		"store.shard.save:torn:0.1:5ms", // delay on a non-latency rule
	} {
		if _, err := ParsePlan(bad, 1); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid spec", bad)
		}
	}
}

// TestCrashChildHelper is the child half of TestCrashKindAborts: re-exec'd
// with FAULT_CRASH_CHILD=1, it activates a crash rule at call 2 and drives
// the site. The first call must pass, the second must abort the process
// with CrashExitCode before reaching the explicit clean exit.
func TestCrashChildHelper(t *testing.T) {
	if os.Getenv("FAULT_CRASH_CHILD") != "1" {
		t.Skip("crash-harness child; driven by TestCrashKindAborts")
	}
	restore := Activate(NewPlan(1).Add(Rule{Site: SiteParse, Kind: KindCrash, Call: 2}))
	defer restore()
	if err := Inject(SiteParse); err != nil {
		t.Fatalf("call 1 before the crash index errored: %v", err)
	}
	_ = Inject(SiteParse) // call 2: aborts the process
	os.Exit(3)            // not reached; distinct from CrashExitCode so the parent can tell
}

func TestCrashKindAborts(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChildHelper$")
	cmd.Env = append(os.Environ(), "FAULT_CRASH_CHILD=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child did not exit non-zero: err=%v out=%s", err, out)
	}
	if code := ee.ExitCode(); code != CrashExitCode {
		t.Fatalf("child exit code = %d, want CrashExitCode (%d); output:\n%s", code, CrashExitCode, out)
	}
}
