package workload

import (
	"reflect"
	"testing"
)

// runAdapt is the shared three-mode harness: one scenario config, one
// run per mode.
func runAdapt(t *testing.T, mode string) *AdaptReport {
	t.Helper()
	cfg := DefaultAdapt()
	cfg.Mode = mode
	lab, err := SetupAdapt(cfg)
	if err != nil {
		t.Fatalf("%s setup: %v", mode, err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatalf("%s run: %v", mode, err)
	}
	return rep
}

// TestAdaptStaticTakesTheDamage: under the diurnal+hotspot profile the
// static configuration false-kills delayed-but-alive peers (including
// the slow worker itself) and churns failover repairs for them, while
// still catching the flapper's real crashes.
func TestAdaptStaticTakesTheDamage(t *testing.T) {
	rep := runAdapt(t, "static")
	if rep.FalseKills < 1 {
		t.Errorf("static run false-killed nobody; the scenario has lost its trap (kills %v)", rep.Kills)
	}
	if rep.TrueKills < 1 {
		t.Errorf("static run missed the flapper's real crashes (kills %v)", rep.Kills)
	}
	if rep.Splits != 0 {
		t.Errorf("static run split %d interiors with the controller off", rep.Splits)
	}
	if rep.HealthPeak != 0 {
		t.Errorf("static run accumulated health %d with adaptive off", rep.HealthPeak)
	}
	if rep.Quarantines != 0 || rep.ReplRaises != 0 {
		t.Errorf("static run ran control actions: %d quarantines, %d replication raises",
			rep.Quarantines, rep.ReplRaises)
	}
}

// TestAdaptAdaptiveKillsNobodyFalsely is the headline acceptance: with
// the PR 9 control loops on, the same fault schedule produces zero
// false kills, still catches every real crash, splits the hot interior
// at runtime, and engages both trigger rules — while the published
// records stay byte-identical to the undisturbed flat deployment.
func TestAdaptAdaptiveKillsNobodyFalsely(t *testing.T) {
	flat := runAdapt(t, "flat")
	if len(flat.Records) == 0 {
		t.Fatal("flat baseline produced no records")
	}
	static := runAdapt(t, "static")
	rep := runAdapt(t, "adaptive")

	if rep.FalseKills != 0 {
		t.Errorf("adaptive run false-killed %d peers: %v", rep.FalseKills, rep.Kills)
	}
	if rep.TrueKills < 1 {
		t.Errorf("adaptive run missed the flapper's real crashes (kills %v)", rep.Kills)
	}
	if rep.HealthPeak == 0 {
		t.Error("adaptive run never raised a health score under degraded links")
	}
	if rep.Splits < 1 {
		t.Error("adaptive run never split the hot interior")
	}
	if static.PostRatio() > 0 && rep.PostRatio() > static.PostRatio() {
		t.Errorf("post-split skew %.2f worse than static %.2f", rep.PostRatio(), static.PostRatio())
	}
	if rep.Quarantines < 1 {
		t.Errorf("quarantine rule never engaged on the flapper (events %d)", rep.Quarantines)
	}
	if rep.ReplRaises < 1 {
		t.Error("replication rule never engaged under the death burst")
	}
	found := false
	for _, q := range rep.Quarantined {
		if q == rep.Flapper {
			found = true
		}
	}
	if !found {
		t.Errorf("flapper %s not in the teardown quarantine set %v", rep.Flapper, rep.Quarantined)
	}
	if c := rep.Completeness(flat.Records); c != 1.0 {
		t.Errorf("adaptive completeness %.3f vs flat, want 1.0", c)
	}
	if !rep.Identical(flat.Records) {
		t.Errorf("adaptive records not byte-identical to flat:\n got: %v\nwant: %v",
			rep.Records, flat.Records)
	}
}

// TestAdaptSameSeedSameReport: the X6 configuration is a function of
// its seed. Two adaptive runs must agree on every reported number,
// repair count included — operators still running while a Step's
// phases execute would make detector ticks and repairs race the
// pipeline.
func TestAdaptSameSeedSameReport(t *testing.T) {
	a, b := runAdapt(t, "adaptive"), runAdapt(t, "adaptive")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
}

// TestAdaptSetupRejectsBadConfigs: the validated constructor surface.
func TestAdaptSetupRejectsBadConfigs(t *testing.T) {
	bad := DefaultAdapt()
	bad.Mode = "chaotic"
	if _, err := SetupAdapt(bad); err == nil {
		t.Error("unknown mode accepted")
	}
	bad = DefaultAdapt()
	bad.Degree = 3
	if _, err := SetupAdapt(bad); err == nil {
		t.Error("degree below the split minimum accepted")
	}
	bad = DefaultAdapt()
	bad.Workers = 1
	if _, err := SetupAdapt(bad); err == nil {
		t.Error("single-worker config accepted (no distinct flapper)")
	}
}
