package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soundboost/internal/fleet"
)

// replicaList collects repeated -replica flags. Each value is
// name=url[=journal-dir]; the optional journal directory lets the
// gateway recover a replica's sessions from disk when the replica dies
// without draining (the live journal-export endpoint being gone).
type replicaList struct {
	reps []fleet.Replica
}

func (l *replicaList) String() string {
	var parts []string
	for _, r := range l.reps {
		parts = append(parts, r.Name+"="+r.BaseURL)
	}
	return strings.Join(parts, " ")
}

func (l *replicaList) Set(v string) error {
	parts := strings.SplitN(v, "=", 3)
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want name=url[=journal-dir], got %q", v)
	}
	r := fleet.Replica{Name: parts[0], BaseURL: strings.TrimRight(parts[1], "/")}
	if len(parts) == 3 {
		r.JournalDir = parts[2]
	}
	l.reps = append(l.reps, r)
	return nil
}

// runGateway fronts a fleet of `soundboost serve` replicas with one
// consistent-hash router: sessions are sharded by id, replica health is
// probed continuously, and sessions on draining or dead replicas are
// migrated to a successor by replaying their journals (see DESIGN.md
// "Fleet routing & handoff").
func runGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8712", "listen address")
		probe     = fs.Duration("probe", 0, "health-probe cadence (0 = default 500ms)")
		retries   = fs.Int("retries", 3, "per-request retry budget against a replica")
		retryBase = fs.Duration("retry-base", 0, "base retry backoff (0 = default 100ms)")
		seed      = fs.Int64("seed", 1, "retry-jitter seed")
		drainWait = fs.Duration("drain", 60*time.Second, "graceful-drain budget on shutdown")

		replication = fs.Int("replication", 0, "durable journal copies per session, owner included (0 = default 2; 1 disables replication)")
		statePath   = fs.String("state", "", "routing-state checkpoint file; enables gateway HA (lease file lands beside it)")
		standby     = fs.Bool("standby", false, "run as warm standby: wait for the primary's lease on -state to go stale, then take over")
		leaseIvl    = fs.Duration("lease-interval", 0, "primary lease renew cadence (0 = default 250ms)")
		leaseTTL    = fs.Duration("lease-ttl", 0, "stale-lease threshold before a standby takes over (0 = default 8x lease-interval)")
	)
	var replicas replicaList
	fs.Var(&replicas, "replica", "replica as name=url[=journal-dir]; repeat per replica")
	rt := addRuntimeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rt.apply(); err != nil {
		return err
	}
	if len(replicas.reps) == 0 {
		return fmt.Errorf("at least one -replica name=url[=journal-dir] is required")
	}
	if *standby && *statePath == "" {
		return fmt.Errorf("-standby requires -state (the checkpoint to take over from)")
	}

	cfg := fleet.Config{
		Replicas:      replicas.reps,
		ProbeInterval: *probe,
		Retries:       *retries,
		RetryBase:     *retryBase,
		Seed:          *seed,
		Replication:   *replication,
		StatePath:     *statePath,
		LeaseInterval: *leaseIvl,
		LeaseTTL:      *leaseTTL,
		Logf:          func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var g *fleet.Gateway
	var err error
	if *standby {
		sb, err := fleet.NewStandby(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("standby gateway watching lease at %s.lease\n", *statePath)
		if err := sb.WaitLease(ctx); err != nil {
			// Signal while waiting: a standby that was never needed
			// exits clean.
			fmt.Println("standby: signal received while waiting; bye")
			return nil
		}
		if g, err = sb.Takeover(); err != nil {
			return err
		}
		fmt.Println("lease stale; standby promoted to primary")
	} else if g, err = fleet.New(cfg); err != nil {
		return err
	}

	// A promoted standby binds the address its dead primary held; the
	// kernel may not have released it the instant the primary died, so
	// retry the bind briefly instead of failing the takeover.
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", *addr)
		if err == nil {
			break
		}
		if !*standby || i >= 100 {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
	httpSrv := &http.Server{Handler: g}
	fmt.Printf("fleet gateway on http://%s routing %d replica(s)\n", ln.Addr(), len(replicas.reps))
	for _, r := range replicas.reps {
		fmt.Printf("  %s -> %s\n", r.Name, r.BaseURL)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Printf("signal received; draining fleet routes (budget %s)...\n", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	drainErr := g.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Println("drained; bye")
	return nil
}
