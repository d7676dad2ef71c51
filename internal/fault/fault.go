// Package fault is the repo's deterministic fault-injection substrate. A
// Plan maps named injection sites — fixed points in the synthesis pipeline
// and the benchmark server — to rules that fire errors, panics or latency
// at a configured rate. Decisions are pure functions of (seed, site,
// invocation index), so a failing run replays exactly under the same plan;
// there is no global RNG and no wall-clock input.
//
// Production paths pay close to nothing: with no plan activated,
// Inject is one atomic pointer load.
//
// A plan is described by a compact spec, one rule per comma-separated
// clause:
//
//	site:kind:rate[:delay]
//
//	parse:error:0.05            5% of parses fail
//	classify:panic:0.02         2% of classifier calls panic
//	render:latency:0.1:20ms     10% of renders stall 20ms
//	*:panic:0.01                1% of calls at every registered site panic
//	store.shard.save:torn:0.1   10% of shard writes persist only a prefix
//	store.shard.save:crash:12   the 12th shard write aborts the process
//
// Two kinds model crashes rather than flaky dependencies. A torn rule
// returns a *TornError carrying the surviving byte fraction; cooperating
// writers (internal/store) persist exactly that prefix before failing, so
// a partially flushed write after power loss is reproducible. A crash rule
// takes a 1-based call index instead of a rate and aborts the process with
// os.Exit(CrashExitCode) at exactly that invocation — the crash harness
// re-execs the workload in a child and sweeps the index to hit every
// crash point.
//
// Injected errors are marked transient (see Transient / IsTransient), so
// the pipeline's bounded-retry layer treats them as retryable — mirroring
// the flaky-dependency failures they stand in for.
package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Registered injection sites. Every site name is declared here so a plan
// can target "*" (all of them) and tests can assert coverage of each one.
const (
	SiteParse      = "parse"      // sqlparser.TryParse entry
	SiteSynthesize = "synthesize" // core.Synthesizer.Synthesize entry
	SiteExecute    = "execute"    // core's per-pair execute loop, once per candidate, and deepeye.Execute
	SiteClassify   = "classify"   // deepeye classifier scoring
	SiteVariants   = "variants"   // bench NL-variant generation
	SiteRender     = "render"     // render.VegaLite and the server's cached-spec hits
	SiteServer     = "server"     // server per-request middleware
	SiteStoreLoad  = "store.load" // store artifact reads (Load, Verify)

	// Sharded-store sites: every write inside one shard (journal, entries,
	// dbs, shard manifest), every root-level write of the merge
	// (root journal, merged manifest and its sum), and the per-shard
	// repair entry points.
	SiteShardSave   = "store.shard.save"   // shard-scoped artifact writes
	SiteShardMerge  = "store.shard.merge"  // root-manifest merge writes
	SiteShardRepair = "store.shard.repair" // per-shard (and root re-merge) repair

	// VQL query-engine site: the executor entry (every query evaluated
	// over the loaded benchmark).
	SiteVQLQuery = "vql.query" // vql.Engine query execution

	// Replicated-store sites: writes into non-primary replica trees
	// during Save, reads of the primary replica's shard artifacts in a
	// replicated store (failover reads from secondaries go through
	// store.load), and every artifact examination or repair copy the
	// anti-entropy scrubber performs.
	SiteReplicaSave  = "store.replica.save"  // replica (r1..rN) shard writes
	SiteReplicaRead  = "store.replica.read"  // primary-replica shard reads
	SiteReplicaScrub = "store.replica.scrub" // scrub checks and repair copies
)

// Sites lists every registered injection site.
func Sites() []string {
	return []string{
		SiteParse, SiteSynthesize, SiteExecute, SiteClassify,
		SiteVariants, SiteRender, SiteServer,
		SiteStoreLoad,
		SiteShardSave, SiteShardMerge, SiteShardRepair,
		SiteVQLQuery,
		SiteReplicaSave, SiteReplicaRead, SiteReplicaScrub,
	}
}

// Kind is the effect a rule injects.
type Kind int

// The five injectable effects.
const (
	KindError Kind = iota
	KindPanic
	KindLatency
	KindTorn
	KindCrash
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindTorn:
		return "torn"
	case KindCrash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// parseKind parses a spec token into a Kind.
func parseKind(s string) (Kind, error) {
	switch s {
	case "error":
		return KindError, nil
	case "panic":
		return KindPanic, nil
	case "latency":
		return KindLatency, nil
	case "torn":
		return KindTorn, nil
	case "crash":
		return KindCrash, nil
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want error, panic, latency, torn or crash)", s)
}

// Rule is one injector: at Site, with probability Rate per invocation,
// produce Kind (delaying Delay first for KindLatency). A KindCrash rule
// fires on an exact invocation index (Call) instead of a rate.
type Rule struct {
	Site  string // a registered site name, or "*" for all
	Kind  Kind
	Rate  float64       // firing probability in [0, 1]; ignored for KindCrash
	Delay time.Duration // KindLatency stall; ignored otherwise
	Call  uint64        // KindCrash: the 1-based invocation that aborts the process
}

func (r Rule) String() string {
	if r.Kind == KindCrash {
		return fmt.Sprintf("%s:%s:%d", r.Site, r.Kind, r.Call)
	}
	s := fmt.Sprintf("%s:%s:%g", r.Site, r.Kind, r.Rate)
	if r.Kind == KindLatency {
		s += ":" + r.Delay.String()
	}
	return s
}

// siteState tracks one site's invocation counter and fire counts.
type siteState struct {
	calls atomic.Uint64
	fired [5]atomic.Uint64 // indexed by Kind
}

// Plan is a seeded set of rules. The zero value is unusable; build plans
// with NewPlan or ParsePlan. A Plan is safe for concurrent use.
type Plan struct {
	seed  int64
	rules map[string][]Rule // site -> rules (wildcards expanded)
	state map[string]*siteState
}

// NewPlan returns an empty plan with the given seed.
func NewPlan(seed int64) *Plan {
	return &Plan{seed: seed, rules: map[string][]Rule{}, state: map[string]*siteState{}}
}

// Add registers a rule, expanding the "*" wildcard over all registered
// sites. It returns the plan for chaining.
func (p *Plan) Add(r Rule) *Plan {
	sites := []string{r.Site}
	if r.Site == "*" {
		sites = Sites()
	}
	for _, site := range sites {
		rr := r
		rr.Site = site
		p.rules[site] = append(p.rules[site], rr)
		if p.state[site] == nil {
			p.state[site] = &siteState{}
		}
	}
	return p
}

// ParsePlan builds a plan from a comma-separated spec (see package doc).
func ParsePlan(spec string, seed int64) (*Plan, error) {
	p := NewPlan(seed)
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("fault: bad clause %q (want site:kind:rate[:delay])", clause)
		}
		site := parts[0]
		if site != "*" && !registered(site) {
			return nil, fmt.Errorf("fault: unknown site %q (registered: %s)", site, strings.Join(Sites(), ", "))
		}
		kind, err := parseKind(parts[1])
		if err != nil {
			return nil, err
		}
		if kind == KindCrash {
			if len(parts) == 4 {
				return nil, fmt.Errorf("fault: delay given for non-latency clause %q", clause)
			}
			call, err := strconv.ParseUint(parts[2], 10, 64)
			if err != nil || call == 0 {
				return nil, fmt.Errorf("fault: bad crash call %q in %q (want a 1-based call index)", parts[2], clause)
			}
			p.Add(Rule{Site: site, Kind: kind, Call: call})
			continue
		}
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("fault: bad rate %q in %q (want a number in [0,1])", parts[2], clause)
		}
		var delay time.Duration
		if len(parts) == 4 {
			if kind != KindLatency {
				return nil, fmt.Errorf("fault: delay given for non-latency clause %q", clause)
			}
			delay, err = time.ParseDuration(parts[3])
			if err != nil {
				return nil, fmt.Errorf("fault: bad delay in %q: %v", clause, err)
			}
		} else if kind == KindLatency {
			delay = 10 * time.Millisecond
		}
		p.Add(Rule{Site: site, Kind: kind, Rate: rate, Delay: delay})
	}
	return p, nil
}

// registered reports whether site is a declared injection site.
func registered(site string) bool {
	for _, s := range Sites() {
		if s == site {
			return true
		}
	}
	return false
}

// Error is an injected failure. It unwraps to ErrInjected and is marked
// transient.
type Error struct {
	Site string
	N    uint64 // 1-based invocation index at the site
}

// ErrInjected is the sentinel all injected errors wrap.
var ErrInjected = errors.New("injected fault")

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at site %q (call %d)", e.Site, e.N)
}

// Unwrap makes errors.Is(err, ErrInjected) hold.
func (e *Error) Unwrap() error { return ErrInjected }

// Is marks injected errors transient without requiring callers to import
// the transient wrapper.
func (e *Error) Is(target error) bool { return target == ErrInjected || target == errTransient }

// TornError is an injected partial-write failure: the write persisted only
// a prefix of its bytes before failing. Frac is the surviving fraction in
// [0, 1), a pure function of (seed, site, call), so cooperating writers
// (internal/store) tear the payload at a reproducible offset before
// returning this error. It unwraps to ErrInjected and is transient.
type TornError struct {
	Site string
	N    uint64  // 1-based invocation index at the site
	Frac float64 // surviving prefix fraction in [0, 1)
}

func (e *TornError) Error() string {
	return fmt.Sprintf("fault: injected torn write at site %q (call %d, kept %.0f%%)", e.Site, e.N, 100*e.Frac)
}

// Unwrap makes errors.Is(err, ErrInjected) hold.
func (e *TornError) Unwrap() error { return ErrInjected }

// Is marks torn writes transient, like plain injected errors.
func (e *TornError) Is(target error) bool { return target == ErrInjected || target == errTransient }

// CrashExitCode is the status an injected crash exits the process with, so
// the re-exec harness can tell "crashed as planned" (this code) from
// "workload failed" (any other non-zero exit).
const CrashExitCode = 86

// crash aborts the process the way a KindCrash rule does: a marker on
// stderr (the parent harness asserts on it), then an immediate exit that —
// like a real crash — runs no deferred cleanup.
func crash(site string, n uint64) {
	fmt.Fprintf(os.Stderr, "fault: injected crash at site %q (call %d)\n", site, n)
	os.Exit(CrashExitCode)
}

// PanicValue is the value injected panics carry, so recovery layers can
// distinguish injected panics from organic ones in test assertions.
type PanicValue struct {
	Site string
	N    uint64
}

func (v PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at site %q (call %d)", v.Site, v.N)
}

// active is the process-wide plan; nil means injection is off and Inject
// returns immediately after one atomic load.
var active atomic.Pointer[Plan]

// Activate installs a plan process-wide and returns a restore function
// that reinstates the previous plan — tests defer it. Passing nil
// deactivates injection.
func Activate(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// Enabled reports whether a plan is active.
func Enabled() bool { return active.Load() != nil }

// Inject consults the active plan at a site. It may sleep (latency rule),
// abort the process (crash rule), panic with a PanicValue (panic rule), or
// return an injected transient error (error or torn rule). With no active
// plan it returns nil at the cost of one atomic load. When several rules
// fire on the same invocation, latency applies first, then crash beats
// panic beats torn beats error. A fired injection's event carries no op
// ID; see InjectContext.
func Inject(site string) error {
	if active.Load() == nil {
		return nil // checked here too so the no-plan path inlines into callers
	}
	return InjectContext(context.Background(), site)
}

// InjectContext is Inject for a caller that holds an operation's context:
// the fault event of a fired injection carries ctx's op ID, so it joins
// the operation it interfered with.
func InjectContext(ctx context.Context, site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.inject(ctx, site)
}

func (p *Plan) inject(ctx context.Context, site string) error {
	rules := p.rules[site]
	if len(rules) == 0 {
		return nil
	}
	st := p.state[site]
	n := st.calls.Add(1)
	var delay time.Duration
	doCrash, doPanic, doError := false, false, false
	tornAt := -1.0
	for i, r := range rules {
		if r.Kind == KindCrash {
			if n == r.Call {
				st.fired[KindCrash].Add(1)
				doCrash = true
			}
			continue
		}
		if !fires(p.seed, site, i, n, r.Rate) {
			continue
		}
		st.fired[r.Kind].Add(1)
		switch r.Kind {
		case KindLatency:
			if r.Delay > delay {
				delay = r.Delay
			}
		case KindPanic:
			doPanic = true
		case KindTorn:
			if tornAt < 0 {
				tornAt = tornFrac(p.seed, site, i, n)
			}
		case KindError:
			doError = true
		case KindCrash:
			// handled above: crash fires on an exact call index, not a rate
		}
	}
	// One fault event per interfered call, for the most severe rule that
	// fired — recorded before crash/panic take control away.
	kind := ""
	switch {
	case doCrash:
		kind = "crash"
	case doPanic:
		kind = "panic"
	case tornAt >= 0:
		kind = "torn"
	case doError:
		kind = "error"
	case delay > 0:
		kind = "latency"
	}
	if kind != "" {
		interfere(ctx, site, kind, delay)
	}
	if doCrash {
		crash(site, n)
	}
	if doPanic {
		panic(PanicValue{Site: site, N: n})
	}
	if tornAt >= 0 {
		return &TornError{Site: site, N: n, Frac: tornAt}
	}
	if doError {
		return &Error{Site: site, N: n}
	}
	return nil
}

// mix hashes (seed, site, ruleIdx, n) into a uniform 64-bit value — the
// shared key derivation behind every injection decision.
func mix(seed int64, site string, ruleIdx int, n uint64) uint64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, b := range []byte(site) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h ^= uint64(ruleIdx+1) * 0x9e3779b97f4a7c15
	h ^= n
	// splitmix64 finalizer: avalanches the combined key into a uniform
	// 64-bit value.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fires decides rule ruleIdx's outcome for invocation n at a site. The
// decision is a pure hash of (seed, site, ruleIdx, n): over any window of
// invocations the firing fraction converges on rate, and the same inputs
// always reproduce the same schedule.
func fires(seed int64, site string, ruleIdx int, n uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(mix(seed, site, ruleIdx, n)>>11)/(1<<53) < rate
}

// tornFrac derives the surviving byte fraction of a torn write in [0, 1).
// The rule index is salted so the fraction decorrelates from the firing
// decision that shares the same key.
func tornFrac(seed int64, site string, ruleIdx int, n uint64) float64 {
	return float64(mix(seed, site, ruleIdx+1000003, n)>>11) / (1 << 53)
}

// SiteStats is the observed activity at one site.
type SiteStats struct {
	Site     string
	Calls    uint64
	Errors   uint64
	Panics   uint64
	Latency  uint64
	Torn     uint64
	Crashes  uint64
	RuleList []Rule
}

// Stats reports per-site invocation and fire counts, sorted by site name.
func (p *Plan) Stats() []SiteStats {
	var out []SiteStats
	for site, st := range p.state {
		out = append(out, SiteStats{
			Site:     site,
			Calls:    st.calls.Load(),
			Errors:   st.fired[KindError].Load(),
			Panics:   st.fired[KindPanic].Load(),
			Latency:  st.fired[KindLatency].Load(),
			Torn:     st.fired[KindTorn].Load(),
			Crashes:  st.fired[KindCrash].Load(),
			RuleList: p.rules[site],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// String renders the plan spec back out, sorted by site.
func (p *Plan) String() string {
	var clauses []string
	for _, site := range Sites() {
		for _, r := range p.rules[site] {
			clauses = append(clauses, r.String())
		}
	}
	return strings.Join(clauses, ",")
}
