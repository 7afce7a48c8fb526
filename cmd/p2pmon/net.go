package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"p2pm/internal/simnet"
	"p2pm/internal/telemetry"
	"p2pm/internal/transport"
)

// netConfig is the -scenario net parameter set.
type netConfig struct {
	Fn      string // aggregate function (default count)
	Users   int    // value universe for value-consuming aggregates
	Windows int    // windows to complete (default 5)
	Nodes   int    // simnet mode: cluster size (default 3)

	// TCP mode: this process runs exactly one node.
	Listen string // listen address; empty = single-process simnet mode
	Name   string // this node's peer name
	Peers  string // name=addr,name=addr,... including self

	// MetricsAddr serves this process's telemetry registry over HTTP
	// (Prometheus at /metrics, JSON at /metrics.json) for the run's
	// lifetime; empty disables the endpoint. See docs/TELEMETRY.md.
	MetricsAddr string
}

// netTelemetry starts the optional metrics endpoint for a net run and
// returns the registry instrumented transports should feed. Both are
// nil when the endpoint is off; the caller closes the server.
func netTelemetry(cfg netConfig) (*telemetry.Registry, *telemetry.Server, error) {
	if cfg.MetricsAddr == "" {
		return nil, nil, nil
	}
	reg := telemetry.NewRegistry()
	srv, err := telemetry.Serve(cfg.MetricsAddr, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("p2pmon: metrics endpoint: %w", err)
	}
	fmt.Fprintf(os.Stderr, "net: metrics on http://%s/metrics\n", srv.Addr)
	return reg, srv, nil
}

// netWait bounds a cluster run; the CI smoke job budgets three minutes
// for the whole three-process exercise, so any healthy run finishes
// far inside this.
const netWait = 120 * time.Second

// runNet runs the transport cluster scenario. Only the root's window
// results go to out — one line per window, a pure function of
// (fn, windows, events, users, sorted peer names) — so the output of a
// multi-process TCP cluster and of the in-process simnet run are
// byte-comparable. Status and progress go to stderr.
func runNet(out io.Writer, cfg netConfig) error {
	if cfg.Listen == "" {
		if cfg.Name != "" || cfg.Peers != "" {
			return fmt.Errorf("p2pmon: -name and -peers need -listen (they describe a TCP cluster process)")
		}
		return runNetSim(out, cfg)
	}
	return runNetTCP(out, cfg)
}

func netNodeConfig(cfg netConfig, self string, peers []string) transport.NodeConfig {
	return transport.NodeConfig{
		Self:            self,
		Peers:           peers,
		Fn:              cfg.Fn,
		Windows:         cfg.Windows,
		Users:           cfg.Users,
		ResendEvery:     50 * time.Millisecond,
		HeartbeatEvery:  100 * time.Millisecond,
		EventsPerWindow: 16,
	}
}

// runNetSim runs the whole cluster in this process over the simnet
// backend — the reference output a TCP run must reproduce byte for
// byte.
func runNetSim(out io.Writer, cfg netConfig) error {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.Nodes < 2 {
		return fmt.Errorf("p2pmon: -nodes %d cannot form a cluster (want >= 2)", cfg.Nodes)
	}
	peers := make([]string, cfg.Nodes)
	for i := range peers {
		peers[i] = fmt.Sprintf("n%d", i+1)
	}
	nw := simnet.New(simnet.Options{Seed: 1})
	sn := transport.NewSimNet(nw)
	reg, msrv, err := netTelemetry(cfg)
	if err != nil {
		return err
	}
	if reg != nil {
		nw.Instrument(reg)
		sn.Instrument(reg)
		defer msrv.Close()
	}
	nodes := make([]*transport.Node, 0, len(peers))
	for _, p := range peers {
		n, err := transport.NewNode(netNodeConfig(cfg, p, peers), sn.Endpoint(p))
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	var root *transport.Node
	for _, n := range nodes {
		if err := n.Wait(netWait); err != nil {
			return err
		}
		if n.IsRoot() {
			root = n
		}
	}
	fmt.Fprintf(os.Stderr, "net: simnet cluster %s done, root %s\n", strings.Join(peers, " "), root.Root())
	for _, line := range root.Results() {
		fmt.Fprintln(out, line)
	}
	lingerForScrape(msrv)
	return nil
}

// lingerForScrape holds a finished run's metrics endpoint open briefly:
// a short cluster run can complete faster than an external scraper
// (scripts/netsmoke.sh, a Prometheus poll) gets its first request in,
// and the final counters are the ones worth reading.
func lingerForScrape(msrv *telemetry.Server) {
	if msrv != nil {
		time.Sleep(2 * time.Second)
	}
}

// runNetTCP runs ONE cluster node in this process over real sockets.
// Start one process per peer of the -peers map; the root process
// prints the window results, the others print nothing on stdout.
func runNetTCP(out io.Writer, cfg netConfig) error {
	if cfg.Name == "" || cfg.Peers == "" {
		return fmt.Errorf("p2pmon: -listen needs -name and -peers")
	}
	if cfg.Nodes != 0 {
		return fmt.Errorf("p2pmon: -nodes applies to the simnet mode only (the TCP cluster size is the -peers map)")
	}
	addrs := make(map[string]string)
	for _, ent := range strings.Split(cfg.Peers, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || name == "" || addr == "" {
			return fmt.Errorf("p2pmon: -peers entry %q is not name=host:port", ent)
		}
		addrs[name] = addr
	}
	if _, ok := addrs[cfg.Name]; !ok {
		return fmt.Errorf("p2pmon: -name %s is missing from the -peers map", cfg.Name)
	}
	peers := make([]string, 0, len(addrs))
	for p := range addrs {
		peers = append(peers, p)
	}
	sort.Strings(peers)

	reg, msrv, err := netTelemetry(cfg)
	if err != nil {
		return err
	}
	if msrv != nil {
		defer msrv.Close()
	}
	tr, err := transport.ListenTCP(cfg.Name, cfg.Listen, transport.TCPOptions{Telemetry: reg})
	if err != nil {
		return err
	}
	defer tr.Close()
	for p, a := range addrs {
		if p != cfg.Name {
			tr.AddPeer(p, a)
		}
	}
	n, err := transport.NewNode(netNodeConfig(cfg, cfg.Name, peers), tr)
	if err != nil {
		return err
	}
	n.Start()
	defer n.Stop()
	if err := n.Wait(netWait); err != nil {
		return err
	}
	st := tr.Stats()
	fmt.Fprintf(os.Stderr, "net: %s done (root %s): sent %d msgs/%d B, received %d msgs/%d B, dropped %d, reconnects %d\n",
		cfg.Name, n.Root(), st.Sent, st.SentBytes, st.Received, st.ReceivedBytes, st.Dropped, st.Reconnects)
	for _, line := range n.Results() {
		fmt.Fprintln(out, line)
	}
	// Linger briefly with the handler still live: a peer whose final ack
	// was lost (a source's partial ack, the root's checkpoint ack)
	// re-sends within its resend period and gets re-acked, instead of
	// retrying against a closed socket.
	time.Sleep(500 * time.Millisecond)
	lingerForScrape(msrv)
	return nil
}
