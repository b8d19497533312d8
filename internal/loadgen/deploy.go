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
	DataDir   string
	// CheckpointEvery reports between automatic checkpoints (0 = the
	// collector default, < 0 disables).
	CheckpointEvery int
	Fsync           bool
}

// DeployConfig describes a full local deployment: N durable shards, each
// behind a seeded chaos proxy with a stable endpoint, fronted by one router.
type DeployConfig struct {
	Shards int
	Shard  ShardConfig // template; DataDir is derived per shard under BaseDir
	// BaseDir holds the per-shard data directories (shard-0, shard-1, ...).
	BaseDir string
	// Seed seeds each shard's chaos proxy (derived per shard).
	Seed uint64
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
	shards []*Shard
	fronts []*shardFront
	stop   chan struct{}
	wg     sync.WaitGroup
}

// Deploy builds and starts the system: shards (each a child process,
// recovered from BaseDir if it holds prior state), chaos fronts, fleet,
// router, and the probe loop. It returns once every shard is registered and
// ready.
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
	d := &Deployment{cfg: cfg, mech: mech, stop: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Shard
		scfg.DataDir = filepath.Join(cfg.BaseDir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(scfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		sh, err := StartShard(ctx, scfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: start shard %d: %w", i, err)
		}
		d.shards = append(d.shards, sh)
		f, err := newShardFront(sh.URL(), chaos.Plan{}, splitmix64(cfg.Seed^uint64(i+1)))
		if err != nil {
			return nil, fmt.Errorf("loadgen: front shard %d: %w", i, err)
		}
		d.fronts = append(d.fronts, f)
	}

	fleet, err := ldp.NewFleet(mech.Agg, ldp.Histogram(cfg.Shard.Domain),
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

// waitReady polls the fleet until want members are ready. A shard process
// that exited on its own ends the wait with its exit status.
func (d *Deployment) waitReady(ctx context.Context, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := d.err(); err != nil {
			return err
		}
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

// err returns the first exit a shard process made on its own, or nil.
func (d *Deployment) err() error {
	for i, sh := range d.shards {
		if err := sh.Err(); err != nil {
			return fmt.Errorf("loadgen: shard %d: %w", i, err)
		}
	}
	return nil
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
		f, sh := d.fronts[i], d.shards[i]
		switch ev.Kind {
		case chaos.EventSetPlan:
			f.proxy.SetPlan(ev.Plan)
		case chaos.EventHeal:
			f.proxy.SetPlan(chaos.Plan{})
		case chaos.EventKill:
			f.setTarget("") // stop forwarding first: 502s are retryable
			sh.Kill()
		case chaos.EventRestart:
			u, err := sh.Restart(ctx)
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
	for _, sh := range d.shards {
		sh.Kill()
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

// Environment contract between a deployment and its shard processes.
const (
	shardEnvFlag     = "LDPLOAD_SHARD"
	shardEnvMech     = "LDPLOAD_MECH"
	shardEnvDomain   = "LDPLOAD_N"
	shardEnvEps      = "LDPLOAD_EPS"
	shardEnvDataDir  = "LDPLOAD_DATA_DIR"
	shardEnvAddrFile = "LDPLOAD_ADDR_FILE"
	shardEnvCkpt     = "LDPLOAD_CKPT_EVERY"
	shardEnvFsync    = "LDPLOAD_FSYNC"
)

// shardArg is the argument every shard process starts with. A test binary
// needs it to reach its TestLoadgenShardProcess hook; a command never
// parses it, because its main calls RunShardFromEnv before flag.Parse.
const shardArg = "-test.run=^TestLoadgenShardProcess$"

// Shard is one durable collector shard running as a child process: a
// re-exec of the current binary with the shard environment set, so Kill is
// a genuine SIGKILL — no deferred flush, no graceful anything, the crash the
// WAL exists for. The binary must call RunShardFromEnv before anything else:
// a command first thing in main, a test package in its
// TestLoadgenShardProcess.
//
// Children run with GORACE=halt_on_error=1, and the shard watches them: an
// exit the harness did not cause — a race report, a crash, a recovery that
// refuses the data directory — fails the start that spawned it, and Err
// keeps it for the run.
type Shard struct {
	cfg ShardConfig

	mu    sync.Mutex
	child *shardChild // nil while killed
	url   string
	gen   int
	err   error // the first exit the harness did not cause
}

// shardChild is one process of a Shard.
type shardChild struct {
	cmd    *exec.Cmd
	killed bool          // the harness sent SIGKILL; guarded by Shard.mu
	exited chan struct{} // closed once the process is reaped
}

// StartShard starts a shard process on cfg (recovering whatever cfg.DataDir
// holds) and returns once it serves.
func StartShard(ctx context.Context, cfg ShardConfig) (*Shard, error) {
	s := &Shard{cfg: cfg}
	if err := s.start(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Shard) start(ctx context.Context) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("loadgen: spawn shard: %w", err)
	}
	s.mu.Lock()
	s.gen++
	gen := s.gen
	s.mu.Unlock()
	addrFile := filepath.Join(s.cfg.DataDir, fmt.Sprintf("addr-%d", gen))
	_ = os.Remove(addrFile)
	cmd := exec.Command(exe, shardArg)
	cmd.Env = append(os.Environ(),
		"GORACE="+strings.TrimSpace(os.Getenv("GORACE")+" halt_on_error=1"),
		shardEnvFlag+"=1",
		shardEnvMech+"="+s.cfg.Mechanism,
		shardEnvDomain+"="+strconv.Itoa(s.cfg.Domain),
		shardEnvEps+"="+strconv.FormatFloat(s.cfg.Epsilon, 'g', -1, 64),
		shardEnvDataDir+"="+s.cfg.DataDir,
		shardEnvAddrFile+"="+addrFile,
		shardEnvCkpt+"="+strconv.Itoa(s.cfg.CheckpointEvery),
		shardEnvFsync+"="+strconv.FormatBool(s.cfg.Fsync),
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("loadgen: spawn shard: %w", err)
	}
	c := &shardChild{cmd: cmd, exited: make(chan struct{})}
	go s.watch(c)
	// Wait for the child to publish its listen address (atomic write+rename).
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			s.mu.Lock()
			s.child, s.url = c, "http://"+strings.TrimSpace(string(b))
			s.mu.Unlock()
			return nil
		}
		select {
		case <-c.exited:
			return s.Err()
		case <-deadline.C:
			s.kill(c)
			return fmt.Errorf("loadgen: shard process never published its address")
		case <-ctx.Done():
			s.kill(c)
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// watch reaps c and keeps its exit as the shard's error unless the harness
// killed it: a SIGKILLed process ends by signal, one that exits on its own
// ends with a status.
func (s *Shard) watch(c *shardChild) {
	_ = c.cmd.Wait()
	s.mu.Lock()
	if s.err == nil && (!c.killed || c.cmd.ProcessState.ExitCode() != -1) {
		s.err = fmt.Errorf("loadgen: shard process %d exited on its own: %s", c.cmd.Process.Pid, c.cmd.ProcessState)
	}
	s.mu.Unlock()
	close(c.exited)
}

// kill SIGKILLs c and returns once it is reaped.
func (s *Shard) kill(c *shardChild) {
	s.mu.Lock()
	c.killed = true
	s.mu.Unlock()
	_ = c.cmd.Process.Kill()
	<-c.exited
}

// URL is the shard's current base URL; it changes across Restart.
func (s *Shard) URL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.url
}

// Kill SIGKILLs the shard's process and reaps it. The shard stays down until
// Restart; killing a shard that is down does nothing.
func (s *Shard) Kill() {
	s.mu.Lock()
	c := s.child
	s.child = nil
	s.mu.Unlock()
	if c != nil {
		s.kill(c)
	}
}

// Restart kills the shard's process, if one runs, and starts a new one on
// the surviving data directory, returning its URL. Recovery (WAL replay)
// happens here.
func (s *Shard) Restart(ctx context.Context) (string, error) {
	s.Kill()
	if err := s.start(ctx); err != nil {
		return "", err
	}
	return s.URL(), nil
}

// Err returns the first exit one of the shard's processes made on its own,
// with its exit status, or nil.
func (s *Shard) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// RunShardFromEnv serves a durable collector shard until the process is
// killed when the shard-process environment is set, and returns at once
// otherwise. Binaries and test hooks that may be re-executed as shards call
// it first.
func RunShardFromEnv() {
	if os.Getenv(shardEnvFlag) != "1" {
		return
	}
	cfg := ShardConfig{
		Mechanism: os.Getenv(shardEnvMech),
		DataDir:   os.Getenv(shardEnvDataDir),
	}
	cfg.Domain, _ = strconv.Atoi(os.Getenv(shardEnvDomain))
	cfg.Epsilon, _ = strconv.ParseFloat(os.Getenv(shardEnvEps), 64)
	cfg.CheckpointEvery, _ = strconv.Atoi(os.Getenv(shardEnvCkpt))
	cfg.Fsync = os.Getenv(shardEnvFsync) == "true"
	fmt.Fprintf(os.Stderr, "loadgen shard: %v\n", serveShardProcess(cfg, os.Getenv(shardEnvAddrFile)))
	os.Exit(1)
}

// serveShardProcess is the shard process's whole life: build the durable
// collector (recovering whatever cfg.DataDir holds), listen, publish the
// address, serve until killed. It returns only with an error.
func serveShardProcess(cfg ShardConfig, addrFile string) error {
	mech, err := BuildMechanism(cfg.Mechanism, cfg.Domain, cfg.Epsilon)
	if err != nil {
		return err
	}
	dopts := []ldp.DurabilityOption{ldp.FsyncEachCommit(cfg.Fsync)}
	if cfg.CheckpointEvery != 0 {
		dopts = append(dopts, ldp.CheckpointEvery(cfg.CheckpointEvery))
	}
	col, err := ldp.NewCollector(mech.Agg, ldp.Histogram(cfg.Domain), 0,
		ldp.WithDurability(cfg.DataDir, dopts...))
	if err != nil {
		return err
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(mech.Agg))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
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
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return srv.Serve(ln)
}
