package transport

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"p2pm/internal/simnet"
)

// runScenario completes the standard node scenario over the given
// backend and returns the root's emitted lines plus the mirror's
// checkpoint keys.
func runScenario(t *testing.T, backend string, cfg NodeConfig, opts TCPOptions) (lines, ckpts []string) {
	t.Helper()
	peers := []string{"n1", "n2", "n3"}
	var nodes map[string]*Node
	switch backend {
	case "simnet":
		nodes, _ = simCluster(t, peers, cfg)
	case "tcp":
		nodes = tcpCluster(t, peers, cfg, opts)
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	waitCluster(t, nodes, 30*time.Second)
	return nodes["n1"].Results(), nodes["n2"].MirrorCkpts()
}

// TestBackendEquivalence is the PR's acceptance pin: the identical
// scenario run over the deterministic simnet backend and over real
// loopback TCP sockets produces byte-identical root output and mirror
// checkpoints — socket timing, reconnects, and interleaving cannot
// leak into the answer because the protocol is exactly-once and the
// merge is a commutative monoid folded in a fixed order.
func TestBackendEquivalence(t *testing.T) {
	for _, fn := range []string{"count", "sum", "avg", "distinct"} {
		t.Run(fn, func(t *testing.T) {
			cfg := NodeConfig{Fn: fn, Windows: 4, EventsPerWindow: 10,
				ResendEvery: 20 * time.Millisecond, HeartbeatEvery: 30 * time.Millisecond}
			simLines, simCkpts := runScenario(t, "simnet", cfg, TCPOptions{})
			tcpLines, tcpCkpts := runScenario(t, "tcp", cfg, TCPOptions{})
			if !reflect.DeepEqual(simLines, tcpLines) {
				t.Errorf("root output diverged across backends\nsimnet: %v\n   tcp: %v", simLines, tcpLines)
			}
			if !reflect.DeepEqual(simCkpts, tcpCkpts) {
				t.Errorf("mirror checkpoints diverged\nsimnet: %v\n   tcp: %v", simCkpts, tcpCkpts)
			}
			if len(simLines) != cfg.Windows {
				t.Fatalf("scenario incomplete: %v", simLines)
			}
		})
	}
}

// TestExactlyOnceChurnTable is the X2-style completeness table over
// both backends: on simnet, churn is injected link loss; on tcp, it is
// periodic connection kills (every live socket torn down mid-run).
// Exactly-once delivery must hold every window at 100% completeness in
// all cells.
func TestExactlyOnceChurnTable(t *testing.T) {
	if testing.Short() {
		t.Skip("churn table skipped in -short")
	}
	peers := []string{"n1", "n2", "n3"}
	cfg := NodeConfig{Windows: 5, EventsPerWindow: 8,
		ResendEvery: 10 * time.Millisecond, HeartbeatEvery: 20 * time.Millisecond}
	wantLines := 5

	t.Run("simnet-loss", func(t *testing.T) {
		for _, rate := range []float64{0.1, 0.3, 0.5} {
			t.Run(fmt.Sprintf("drop=%.1f", rate), func(t *testing.T) {
				sn := NewSimNet(simnet.New(simnet.Options{Seed: int64(rate * 100)}))
				eps := make(map[string]Transport, len(peers))
				for _, p := range peers {
					eps[p] = sn.Endpoint(p)
				}
				for _, p := range peers {
					for _, q := range peers {
						if p != q {
							sn.Net().SetDrop(p, q, rate)
						}
					}
				}
				nodes := startCluster(t, peers, cfg, eps)
				waitCluster(t, nodes, 60*time.Second)
				if got := nodes["n1"].Results(); len(got) != wantLines {
					t.Errorf("completeness %d/%d windows at drop=%.1f", len(got), wantLines, rate)
				}
				if got := nodes["n2"].MirrorCkpts(); len(got) != wantLines {
					t.Errorf("mirror holds %d/%d checkpoints at drop=%.1f", len(got), wantLines, rate)
				}
			})
		}
	})

	t.Run("tcp-conn-kills", func(t *testing.T) {
		for _, killEvery := range []time.Duration{150 * time.Millisecond, 60 * time.Millisecond} {
			t.Run(killEvery.String(), func(t *testing.T) {
				opts := TCPOptions{BackoffMin: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
				tps := make(map[string]*TCP, len(peers))
				for _, p := range peers {
					tp, err := ListenTCP(p, "127.0.0.1:0", opts)
					if err != nil {
						t.Fatal(err)
					}
					tps[p] = tp
					t.Cleanup(func() { tp.Close() })
				}
				for _, p := range peers {
					for _, q := range peers {
						if p != q {
							tps[p].AddPeer(q, tps[q].Addr())
						}
					}
				}
				eps := make(map[string]Transport, len(peers))
				for p, tp := range tps {
					eps[p] = tp
				}
				nodes := startCluster(t, peers, cfg, eps)
				stop := make(chan struct{})
				defer close(stop)
				go func() {
					tick := time.NewTicker(killEvery)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
							for _, tp := range tps {
								tp.DropConnections()
							}
						}
					}
				}()
				waitCluster(t, nodes, 60*time.Second)
				got := nodes["n1"].Results()
				if len(got) != wantLines {
					t.Fatalf("completeness %d/%d windows with kills every %v", len(got), wantLines, killEvery)
				}
				if cks := nodes["n2"].MirrorCkpts(); len(cks) != wantLines {
					t.Fatalf("mirror holds %d/%d checkpoints with kills every %v", len(cks), wantLines, killEvery)
				}
				// And the answers are still the loss-free ones.
				clean, _ := runScenario(t, "simnet", cfg, TCPOptions{})
				if !reflect.DeepEqual(got, clean) {
					t.Errorf("churned tcp output diverged from clean run\n got %v\nwant %v", got, clean)
				}
			})
		}
	})
}
