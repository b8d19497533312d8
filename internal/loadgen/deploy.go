package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ldp "repro"
	"repro/internal/chaos"
	"repro/internal/transport"
)

// ShardConfig is one shard's serving configuration.
type ShardConfig struct {
	Mechanism string
	Domain    int
	Epsilon   float64
	Workload  string
	DataDir   string
	// CheckpointEvery reports between automatic checkpoints (0 = the
	// collector default, < 0 disables).
	CheckpointEvery int
	Fsync           bool
	// CollectorShards is the in-process accumulator shard count (0 = auto).
	CollectorShards int
}

// ShardProc is a handle to one running shard behind its stable front: the
// deployment kills and restarts it through this, whatever "process" means
// for the implementation (a real OS process for SpawnFunc shards, a server
// instance for in-process ones).
type ShardProc interface {
	// URL is the shard's current direct base URL (changes across Restart).
	URL() string
	// Kill hard-stops the shard without flushing or checkpointing.
	Kill() error
	// Restart brings the shard back on its surviving data directory and
	// returns its new URL. Recovery (WAL replay) happens here.
	Restart(ctx context.Context) (string, error)
	// Stop shuts the shard down at deployment teardown.
	Stop() error
}

// SpawnFunc starts shard i with cfg and returns its handle. nil means
// in-process shards (fast, but Kill is a quiesced teardown rather than a
// true SIGKILL — use NewSubprocessSpawner for crash realism).
type SpawnFunc func(ctx context.Context, shard int, cfg ShardConfig) (ShardProc, error)

// DeployConfig describes a full local deployment: N durable shards, each
// behind a seeded chaos proxy with a stable endpoint, fronted by one router.
type DeployConfig struct {
	Shards int
	Shard  ShardConfig // template; DataDir is derived per shard under BaseDir
	// BaseDir holds the per-shard data directories (shard-0, shard-1, ...).
	BaseDir string
	// Seed seeds each shard's chaos proxy (derived per shard).
	Seed uint64
	// Spawn starts shard processes; nil runs shards in-process.
	Spawn SpawnFunc
	// ProbeEvery is the router's readiness-probe interval (0 = 150ms — fast,
	// because scenarios need gating to react within a run).
	ProbeEvery time.Duration
	// Quorum is the router's merge quorum (0 = serve any coverage).
	Quorum int
}

// Deployment is a live router→shards system under test.
type Deployment struct {
	RouterURL string

	cfg    DeployConfig
	mech   *Mechanism
	fleet  *ldp.Fleet
	fs     *ldp.FleetServer
	router *http.Server
	shards []ShardProc
	fronts []*shardFront
	stop   chan struct{}
	wg     sync.WaitGroup
}

// Deploy builds and starts the system: shards (recovered from BaseDir if it
// holds prior state), chaos fronts, fleet, router, and the probe loop. It
// returns once every shard is registered and ready.
func Deploy(ctx context.Context, cfg DeployConfig) (*Deployment, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("loadgen: deploy needs Shards > 0")
	}
	if cfg.BaseDir == "" {
		return nil, fmt.Errorf("loadgen: deploy needs BaseDir")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 150 * time.Millisecond
	}
	mech, err := BuildMechanism(cfg.Shard.Mechanism, cfg.Shard.Domain, cfg.Shard.Epsilon)
	if err != nil {
		return nil, err
	}
	wname := cfg.Shard.Workload
	if wname == "" {
		wname = "Histogram"
	}
	w, err := ldp.WorkloadByName(wname, cfg.Shard.Domain)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}

	d := &Deployment{cfg: cfg, mech: mech, stop: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Shard
		scfg.Workload = wname
		scfg.DataDir = filepath.Join(cfg.BaseDir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(scfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		var sp ShardProc
		if cfg.Spawn != nil {
			sp, err = cfg.Spawn(ctx, i, scfg)
		} else {
			sp, err = startInProcShard(scfg)
		}
		if err != nil {
			return nil, fmt.Errorf("loadgen: start shard %d: %w", i, err)
		}
		d.shards = append(d.shards, sp)
		f, err := newShardFront(sp.URL(), chaos.Plan{}, splitmix64(cfg.Seed^uint64(i+1)))
		if err != nil {
			return nil, fmt.Errorf("loadgen: front shard %d: %w", i, err)
		}
		d.fronts = append(d.fronts, f)
	}

	fleet, err := ldp.NewFleet(mech.Agg, w,
		ldp.WithFleetQuorum(cfg.Quorum),
		ldp.WithFleetUnhealthyAfter(2))
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	d.fleet = fleet
	for i, f := range d.fronts {
		if err := fleet.Register(ctx, f.url); err != nil {
			return nil, fmt.Errorf("loadgen: register shard %d: %w", i, err)
		}
	}
	fs, err := ldp.NewFleetServer(fleet)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	d.fs = fs
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	d.router = &http.Server{Handler: fs.Handler(), ReadHeaderTimeout: 10 * time.Second}
	d.RouterURL = "http://" + ln.Addr().String()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.router.Serve(ln)
	}()

	// The probe loop turns shard failures into membership changes — without
	// it a killed shard keeps receiving routed traffic forever.
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		ticker := time.NewTicker(cfg.ProbeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-ticker.C:
				pctx, cancel := context.WithTimeout(context.Background(), cfg.ProbeEvery*4)
				d.fleet.Probe(pctx)
				cancel()
			}
		}
	}()

	if err := d.waitReady(ctx, cfg.Shards, 30*time.Second); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// waitReady polls the fleet until want members are ready.
func (d *Deployment) waitReady(ctx context.Context, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		d.fleet.Probe(pctx)
		cancel()
		if d.fleet.ReadyCount() >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %d/%d shards ready after %v", d.fleet.ReadyCount(), want, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Apply executes one fault-schedule event against the deployment.
func (d *Deployment) Apply(ctx context.Context, ev chaos.Event) error {
	targets := []int{ev.Shard}
	if ev.Shard < 0 {
		targets = targets[:0]
		for i := range d.fronts {
			targets = append(targets, i)
		}
	}
	for _, i := range targets {
		if i < 0 || i >= len(d.fronts) {
			return fmt.Errorf("loadgen: event targets shard %d of %d", i, len(d.fronts))
		}
		f, sp := d.fronts[i], d.shards[i]
		switch ev.Kind {
		case chaos.EventSetPlan:
			f.proxy.SetPlan(ev.Plan)
		case chaos.EventHeal:
			f.proxy.SetPlan(chaos.Plan{})
		case chaos.EventKill:
			f.setTarget("") // stop forwarding first: 502s are retryable
			if err := sp.Kill(); err != nil {
				return fmt.Errorf("loadgen: kill shard %d: %w", i, err)
			}
		case chaos.EventRestart:
			u, err := sp.Restart(ctx)
			if err != nil {
				return fmt.Errorf("loadgen: restart shard %d: %w", i, err)
			}
			f.setTarget(u)
		case chaos.EventDrain:
			d.fleet.Gate(f.url, "scenario drain")
		case chaos.EventUndrain:
			d.fleet.Ungate(f.url)
		default:
			return fmt.Errorf("loadgen: unknown event kind %v", ev.Kind)
		}
	}
	return nil
}

// Snap returns the fleet's merged snapshot and coverage.
func (d *Deployment) Snap(ctx context.Context) (ldp.Snapshot, ldp.Coverage, error) {
	return d.fleet.Snap(ctx)
}

// ChaosStats snapshots every front's injection counters.
func (d *Deployment) ChaosStats() []chaos.Stats {
	out := make([]chaos.Stats, len(d.fronts))
	for i, f := range d.fronts {
		out[i] = f.proxy.Stats()
	}
	return out
}

// ShardHealth polls every shard's /healthz through its front (call after the
// schedule has healed the proxies) for the WAL durability facts.
func (d *Deployment) ShardHealth(ctx context.Context) []transport.Health {
	out := make([]transport.Health, 0, len(d.fronts))
	for _, f := range d.fronts {
		tc, err := transport.NewClient(f.url, nil)
		if err != nil {
			continue
		}
		if h, err := tc.Healthz(ctx); err == nil {
			out = append(out, h)
		}
	}
	return out
}

// ReadyCount returns how many shards are currently routable.
func (d *Deployment) ReadyCount() int { return d.fleet.ReadyCount() }

// Close tears the deployment down: probe loop, router, fronts, shards.
func (d *Deployment) Close() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	if d.router != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = d.router.Shutdown(sctx)
		cancel()
	}
	for _, f := range d.fronts {
		f.close()
	}
	for _, sp := range d.shards {
		_ = sp.Stop()
	}
	if d.fleet != nil {
		_ = d.fleet.Close()
	}
	d.wg.Wait()
}

// shardFront is a shard's stable public endpoint: a listener whose handler
// is a seeded chaos proxy wrapping a retargetable reverse proxy. The fleet
// registers the front, so the shard can die and come back on a different
// port without a membership change — exactly how a shard behind a stable
// service address behaves.
type shardFront struct {
	url    string
	proxy  *chaos.Proxy
	target atomic.Pointer[url.URL] // nil while the shard is down
	ln     net.Listener
	srv    *http.Server
}

func newShardFront(backendURL string, plan chaos.Plan, seed uint64) (*shardFront, error) {
	f := &shardFront{}
	if err := f.parseTarget(backendURL); err != nil {
		return nil, err
	}
	rp := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			if t := f.target.Load(); t != nil {
				pr.SetURL(t)
			}
		},
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "loadgen: shard unreachable", http.StatusBadGateway)
		},
		ErrorLog: nil,
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.target.Load() == nil {
			// Shard down: a retryable 502, same as a dead backend.
			w.Header().Set("Retry-After", "1")
			http.Error(w, "loadgen: shard down", http.StatusBadGateway)
			return
		}
		rp.ServeHTTP(w, r)
	})
	f.proxy = chaos.New(inner, plan, seed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.ln = ln
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: f.proxy, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = f.srv.Serve(ln) }()
	return f, nil
}

// setTarget retargets the front ("" marks the shard down).
func (f *shardFront) setTarget(backendURL string) {
	if backendURL == "" {
		f.target.Store(nil)
		return
	}
	_ = f.parseTarget(backendURL)
}

func (f *shardFront) parseTarget(backendURL string) error {
	u, err := url.Parse(backendURL)
	if err != nil {
		return fmt.Errorf("loadgen: bad shard URL %q: %w", backendURL, err)
	}
	f.target.Store(u)
	return nil
}

func (f *shardFront) close() {
	sctx, cancel := context.WithTimeout(context.Background(), time.Second)
	_ = f.srv.Shutdown(sctx)
	cancel()
}

// inProcShard runs a durable collector shard inside this process. Kill is a
// quiesce-then-abandon: the server stops (in-flight ingests finish), the
// collector is dropped WITHOUT Close — no final checkpoint, no WAL flush
// beyond what acknowledgment already guaranteed — so Restart exercises real
// WAL recovery. For a true mid-syscall SIGKILL use a subprocess spawner.
type inProcShard struct {
	cfg ShardConfig

	mu  sync.Mutex
	srv *http.Server
	col *ldp.Collector
	url string
}

func startInProcShard(cfg ShardConfig) (*inProcShard, error) {
	s := &inProcShard{cfg: cfg}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *inProcShard) start() error {
	col, srv, ln, err := openShard(s.cfg)
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	s.mu.Lock()
	s.srv, s.col, s.url = srv, col, "http://"+ln.Addr().String()
	s.mu.Unlock()
	return nil
}

// openShard builds one shard from cfg — the durable collector (recovering
// whatever cfg.DataDir holds), its HTTP server, and a loopback listener — the
// same way for an in-process shard and a subprocess one.
func openShard(cfg ShardConfig) (*ldp.Collector, *http.Server, net.Listener, error) {
	mech, err := BuildMechanism(cfg.Mechanism, cfg.Domain, cfg.Epsilon)
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.Workload == "" {
		cfg.Workload = "Histogram"
	}
	w, err := ldp.WorkloadByName(cfg.Workload, cfg.Domain)
	if err != nil {
		return nil, nil, nil, err
	}
	dopts := []ldp.DurabilityOption{ldp.FsyncEachCommit(cfg.Fsync)}
	if cfg.CheckpointEvery != 0 {
		dopts = append(dopts, ldp.CheckpointEvery(cfg.CheckpointEvery))
	}
	col, err := ldp.NewCollector(mech.Agg, w, cfg.CollectorShards,
		ldp.WithDurability(cfg.DataDir, dopts...))
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(mech.Agg))
	if err != nil {
		col.Close()
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		col.Close()
		return nil, nil, nil, err
	}
	return col, &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}, ln, nil
}

func (s *inProcShard) URL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.url
}

func (s *inProcShard) Kill() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.col = nil, nil // abandon without Close: recovery must replay
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	// Let in-flight ingests finish their WAL append before the listener
	// dies, so the abandoned store's file handle goes quiet before a
	// Restart reopens the segment.
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx)
	return nil
}

func (s *inProcShard) Restart(ctx context.Context) (string, error) {
	if err := s.start(); err != nil {
		return "", err
	}
	return s.URL(), nil
}

func (s *inProcShard) Stop() error {
	s.mu.Lock()
	srv, col := s.srv, s.col
	s.srv, s.col = nil, nil
	s.mu.Unlock()
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(sctx)
		cancel()
	}
	if col != nil {
		return col.Close()
	}
	return nil
}

// Environment contract between a deployment and its subprocess shards.
const (
	shardEnvFlag      = "LDPLOAD_SHARD"
	shardEnvMech      = "LDPLOAD_MECH"
	shardEnvDomain    = "LDPLOAD_N"
	shardEnvEps       = "LDPLOAD_EPS"
	shardEnvWorkload  = "LDPLOAD_WORKLOAD"
	shardEnvDataDir   = "LDPLOAD_DATA_DIR"
	shardEnvAddrFile  = "LDPLOAD_ADDR_FILE"
	shardEnvCkpt      = "LDPLOAD_CKPT_EVERY"
	shardEnvFsync     = "LDPLOAD_FSYNC"
	shardEnvColShards = "LDPLOAD_COLLECTOR_SHARDS"
)

// subprocShard runs a shard as a real OS process (a re-exec of argv0 with
// the shard environment set), so Kill is a genuine SIGKILL: no deferred
// flush, no graceful anything — the crash the WAL exists for.
type subprocShard struct {
	argv0 string
	args  []string
	cfg   ShardConfig

	mu  sync.Mutex
	cmd *exec.Cmd
	url string
	gen int
}

// NewSubprocessSpawner returns a SpawnFunc that re-executes the current
// binary with args (empty for a binary whose main calls RunShardFromEnv
// first; a test binary passes its guard-test selector, e.g.
// "-test.run=^TestLoadgenShardProcess$"). The child must call
// RunShardFromEnv before anything else.
func NewSubprocessSpawner(args ...string) SpawnFunc {
	return func(ctx context.Context, shard int, cfg ShardConfig) (ShardProc, error) {
		s := &subprocShard{argv0: os.Args[0], args: args, cfg: cfg}
		if err := s.start(ctx); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (s *subprocShard) start(ctx context.Context) error {
	s.mu.Lock()
	s.gen++
	gen := s.gen
	s.mu.Unlock()
	addrFile := filepath.Join(s.cfg.DataDir, fmt.Sprintf("addr-%d", gen))
	_ = os.Remove(addrFile)
	cmd := exec.Command(s.argv0, s.args...)
	cmd.Env = append(os.Environ(),
		shardEnvFlag+"=1",
		shardEnvMech+"="+s.cfg.Mechanism,
		shardEnvDomain+"="+strconv.Itoa(s.cfg.Domain),
		shardEnvEps+"="+strconv.FormatFloat(s.cfg.Epsilon, 'g', -1, 64),
		shardEnvWorkload+"="+s.cfg.Workload,
		shardEnvDataDir+"="+s.cfg.DataDir,
		shardEnvAddrFile+"="+addrFile,
		shardEnvCkpt+"="+strconv.Itoa(s.cfg.CheckpointEvery),
		shardEnvFsync+"="+strconv.FormatBool(s.cfg.Fsync),
		shardEnvColShards+"="+strconv.Itoa(s.cfg.CollectorShards),
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("loadgen: spawn shard: %w", err)
	}
	// Wait for the child to publish its listen address (atomic write+rename).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			s.mu.Lock()
			s.cmd, s.url = cmd, "http://"+strings.TrimSpace(string(b))
			s.mu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return fmt.Errorf("loadgen: shard process never published its address")
		}
		select {
		case <-ctx.Done():
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (s *subprocShard) URL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.url
}

func (s *subprocShard) Kill() error {
	s.mu.Lock()
	cmd := s.cmd
	s.cmd = nil
	s.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return nil
	}
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	_, _ = cmd.Process.Wait()
	return nil
}

func (s *subprocShard) Restart(ctx context.Context) (string, error) {
	if err := s.start(ctx); err != nil {
		return "", err
	}
	return s.URL(), nil
}

func (s *subprocShard) Stop() error { return s.Kill() }

// RunShardFromEnv checks the subprocess-shard environment contract and, when
// set, serves a durable collector shard until killed — it never returns in
// that case. Binaries and test guards that may be re-executed as shards call
// it first; it returns false immediately in a normal invocation.
func RunShardFromEnv() bool {
	if os.Getenv(shardEnvFlag) != "1" {
		return false
	}
	cfg := ShardConfig{
		Mechanism: os.Getenv(shardEnvMech),
		Workload:  os.Getenv(shardEnvWorkload),
		DataDir:   os.Getenv(shardEnvDataDir),
	}
	cfg.Domain, _ = strconv.Atoi(os.Getenv(shardEnvDomain))
	cfg.Epsilon, _ = strconv.ParseFloat(os.Getenv(shardEnvEps), 64)
	cfg.CheckpointEvery, _ = strconv.Atoi(os.Getenv(shardEnvCkpt))
	cfg.Fsync = os.Getenv(shardEnvFsync) == "true"
	cfg.CollectorShards, _ = strconv.Atoi(os.Getenv(shardEnvColShards))
	addrFile := os.Getenv(shardEnvAddrFile)
	if err := serveShardProcess(cfg, addrFile); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen shard: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
	return true
}

// serveShardProcess is the subprocess shard's whole life: build the durable
// collector, listen, publish the address, serve until killed.
func serveShardProcess(cfg ShardConfig, addrFile string) error {
	_, srv, ln, err := openShard(cfg)
	if err != nil {
		return err
	}
	// Atomic publish: a partial read must be impossible, the parent polls.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		return err
	}
	return srv.Serve(ln)
}
