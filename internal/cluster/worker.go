package cluster

import (
	"context"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rsonpath/internal/server"
)

// RunWorker runs one shard's daemon on a unix socket until ctx is cancelled
// (the supervisor's SIGTERM, typically bound via signal.NotifyContext by the
// caller), then drains in-flight requests for up to drainTimeout. SIGHUP is
// handled here — flush caches — so every worker main (the production
// re-exec, the bench harness's hidden worker mode, the test binaries) gets
// identical semantics from one implementation.
//
// The socket path is stamped into cfg.Addr; cfg.Shard should already name
// the shard so /healthz and logs identify which worker answered.
func RunWorker(ctx context.Context, cfg server.Config, socket string, drainTimeout time.Duration) error {
	cfg.Addr = "unix:" + socket
	srv := server.New(cfg)
	if err := srv.Listen(); err != nil {
		return err
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-hup:
				srv.Flush()
			case <-ctx.Done():
				return
			case <-done:
				return
			}
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve() }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	return <-errCh
}
