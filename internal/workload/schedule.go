package workload

import (
	"fmt"
	"sort"
	"time"

	"p2pm/internal/peer"
)

// schedRunner is the shared churn-schedule engine behind ChurnLab and
// AggLab: the per-event loop that drives workload, advances virtual time
// (System.Step processes every released item first), admits pending
// joiners, recovers/rejoins departed peers, and injects the graceful-leave and crash schedules
// under the one-outstanding-failure rule. The labs differ only in what
// they drive, whom they target and how they score — those arrive as
// schedule hooks — so scheduling fixes land here once instead of
// drifting between per-lab reimplementations.
type schedRunner struct {
	sys *peer.System
	sup *peer.Supervisor

	pending []string        // workers still to join, in admission order
	away    map[string]bool // gracefully departed, awaiting rejoin
	// ignoreSuspect marks detector suspects whose absence is deliberate
	// (e.g. the partitioned home of the survivability scenario); they
	// never block the one-outstanding-failure rule.
	ignoreSuspect func(string) bool

	timeline  []string
	recoverAt map[string]time.Duration
	rejoinAt  map[string]time.Duration

	driven, crashes, leaves, joins, leaveRepairs int

	crashLog []CrashEvent
	joinLog  []JoinEvent
	leaveLog []LeaveEvent
}

func newSchedRunner(sys *peer.System) *schedRunner {
	return &schedRunner{
		sys:       sys,
		away:      make(map[string]bool),
		recoverAt: make(map[string]time.Duration),
		rejoinAt:  make(map[string]time.Duration),
	}
}

// attach wires the runner to the lab's supervisor and records the
// detector's death/recovery events on the shared timeline. Registered
// after the supervisor's own callbacks, so repairs have already run when
// an entry is appended — the entry order is the supervisor's action
// order.
func (r *schedRunner) attach(sup *peer.Supervisor) {
	r.sup = sup
	sup.Detector().OnDeath(func(p string, at time.Duration) {
		r.note("t=%v dead %s", at, p)
	})
	sup.Detector().OnRecover(func(p string, at time.Duration) {
		r.note("t=%v recovered %s", at, p)
	})
}

func (r *schedRunner) note(format string, args ...any) {
	r.timeline = append(r.timeline, fmt.Sprintf(format, args...))
}

// pendingSuspects returns the detector's confirmed-dead set minus the
// peers whose absence is deliberate: ignored suspects and gracefully
// departed workers awaiting their rejoin — neither is an outstanding
// crash, so neither may block the schedule's one-outstanding-failure
// rule.
func (r *schedRunner) pendingSuspects() []string {
	sus := r.sup.Detector().Suspects()
	out := sus[:0]
	for _, s := range sus {
		if r.ignoreSuspect != nil && r.ignoreSuspect(s) {
			continue
		}
		if r.away[s] {
			continue
		}
		out = append(out, s)
	}
	return out
}

// joinEvery resolves the admission cadence: the configured one, or an
// even spread of the pending joins across the run.
func (r *schedRunner) joinEvery(configured, events int) int {
	if configured > 0 {
		return configured
	}
	if len(r.pending) == 0 {
		return 0
	}
	every := events / (len(r.pending) + 1)
	if every < 1 {
		every = 1
	}
	return every
}

// schedule parameterizes one run of the shared event loop.
type schedule struct {
	Events     int
	Step       time.Duration
	MTTR       time.Duration
	CrashEvery int
	LeaveEvery int
	JoinEvery  int

	// Drive issues event i. An error aborts the run; a lab that
	// tolerates drive faults (the home-partition scenario) absorbs them
	// in its closure.
	Drive func(i int) error
	// Victim names the current leave/crash target.
	Victim func() string
	// VictimOK, when set, further restricts eligible victims (e.g. only
	// worker-pool peers); liveness and the one-outstanding-failure rule
	// are checked by the runner itself.
	VictimOK func(string) bool
	// AfterStep runs right after each clock advance (the home-partition
	// injection point).
	AfterStep func(driven int, now time.Duration)
	// OnJoin runs after each runtime admission; left is the number of
	// joiners still pending.
	OnJoin func(name string, now time.Duration, left int)
}

// sortedDue returns the peers in m whose deadline has passed, sorted, so
// multiple same-tick recoveries/rejoins happen in a deterministic order.
func sortedDue(m map[string]time.Duration, now time.Duration) []string {
	due := make([]string, 0, len(m))
	for name, at := range m {
		if now >= at {
			due = append(due, name)
		}
	}
	sort.Strings(due)
	return due
}

func (r *schedRunner) victimOK(s schedule, v string) bool {
	if s.VictimOK != nil && !s.VictimOK(v) {
		return false
	}
	return r.sys.Net.Alive(v) && len(r.pendingSuspects()) == 0
}

// run drives the event loop: one workload event per iteration with the
// membership schedules interleaved at their configured cadences.
func (r *schedRunner) run(s schedule) error {
	joinEvery := r.joinEvery(s.JoinEvery, s.Events)
	for i := 0; i < s.Events; i++ {
		if err := s.Drive(i); err != nil {
			return err
		}
		r.driven++
		r.sys.Step(s.Step)
		now := r.sys.Net.Clock().Now()
		if s.AfterStep != nil {
			s.AfterStep(r.driven, now)
		}
		if joinEvery > 0 && len(r.pending) > 0 && r.driven%joinEvery == 0 {
			name := r.pending[0]
			r.pending = r.pending[1:]
			if _, err := r.sys.JoinPeer(name, "mgr"); err != nil {
				return fmt.Errorf("workload: admitting %s: %w", name, err)
			}
			r.joins++
			r.joinLog = append(r.joinLog, JoinEvent{Peer: name, At: now})
			r.note("t=%v join %s", now, name)
			if s.OnJoin != nil {
				s.OnJoin(name, now, len(r.pending))
			}
		}
		for _, peerName := range sortedDue(r.recoverAt, now) {
			r.sys.Net.Recover(peerName) //nolint:errcheck // known node
			delete(r.recoverAt, peerName)
		}
		for _, peerName := range sortedDue(r.rejoinAt, now) {
			if _, err := r.sys.JoinPeer(peerName, "mgr"); err != nil {
				return fmt.Errorf("workload: re-admitting %s after its leave: %w", peerName, err)
			}
			delete(r.rejoinAt, peerName)
			r.away[peerName] = false
			r.note("t=%v rejoin %s", now, peerName)
		}
		if s.LeaveEvery > 0 && r.driven%s.LeaveEvery == 0 {
			leaver := s.Victim()
			// Like the crash schedule: one departure at a time, and only
			// while the pool is otherwise healthy.
			if r.victimOK(s, leaver) && len(r.rejoinAt) == 0 {
				r.sys.Quiesce()
				evs, err := r.sys.LeavePeer(leaver)
				if err != nil {
					return fmt.Errorf("workload: %s leaving gracefully: %w", leaver, err)
				}
				for _, ev := range evs {
					if ev.Repaired() {
						r.leaveRepairs++
					}
				}
				r.leaves++
				r.leaveLog = append(r.leaveLog, LeaveEvent{Peer: leaver, At: now})
				r.note("t=%v leave %s", now, leaver)
				r.away[leaver] = true
				r.rejoinAt[leaver] = now + s.MTTR
			}
		}
		if s.CrashEvery > 0 && r.driven%s.CrashEvery == 0 {
			victim := s.Victim()
			// Only one outstanding crash: skip if the pool is still
			// healing from the last one. Let the pipeline drain first:
			// virtual time between events means earlier events are long
			// delivered when the crash strikes, so the measured loss is
			// the outage window itself, not a scheduling artifact.
			if r.victimOK(s, victim) {
				r.sys.Quiesce()
				r.sys.Net.Crash(victim) //nolint:errcheck // known node
				r.crashes++
				r.crashLog = append(r.crashLog, CrashEvent{Victim: victim, At: now})
				r.note("t=%v crash %s", now, victim)
				r.recoverAt[victim] = now + s.MTTR
			}
		}
	}
	return nil
}
