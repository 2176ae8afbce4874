package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// RollingReload fans a model reload out shard-by-shard: for each shard
// in turn it checks the quorum gate (at least cfg.Quorum OTHER shards
// must currently be available — the ring never drops below quorum
// because of a reload we initiated), POSTs the shard's reload endpoint,
// and then waits for the shard's /readyz to answer 200 before moving to
// the next. cmd/clapf-router wires SIGHUP here, giving the tier the same
// one-signal reload story a single shard has.
//
// A shard whose reload endpoint reports failure keeps its old model
// serving (the shard-side swap gate guarantees that), so the sweep
// records the error and continues to the remaining shards — a corrupt
// model file should not strand the tier half-reloaded on generation
// skew any longer than necessary. The aggregated error is returned.
// A quorum violation, by contrast, aborts immediately: continuing would
// risk the availability the gate exists to protect.
func (r *Router) RollingReload(ctx context.Context) error {
	var errs []error
	for _, sh := range r.shards {
		if avail := r.othersAvailable(sh); avail < r.cfg.Quorum {
			err := fmt.Errorf("cluster: rolling reload halted at %s: only %d other shards available, quorum %d",
				sh.name, avail, r.cfg.Quorum)
			r.reloads.With("quorum_abort").Inc()
			r.log.Error("rolling reload aborted", "shard", sh.name, "available", avail, "quorum", r.cfg.Quorum)
			return errors.Join(append(errs, err)...)
		}
		if err := r.reloadShard(ctx, sh); err != nil {
			errs = append(errs, err)
			r.log.Error("shard reload failed; old model keeps serving", "shard", sh.name, "err", err)
			continue
		}
		if err := r.awaitReady(ctx, sh); err != nil {
			errs = append(errs, err)
			r.reloads.With("error").Inc()
			r.log.Error("shard not ready after reload", "shard", sh.name, "err", err)
			return errors.Join(errs...) // a shard stuck not-ready: stop widening the blast radius
		}
		r.log.Info("shard reloaded", "shard", sh.name)
	}
	if len(errs) > 0 {
		r.reloads.With("error").Inc()
		return errors.Join(errs...)
	}
	r.reloads.With("ok").Inc()
	return nil
}

// othersAvailable counts available shards excluding sh.
func (r *Router) othersAvailable(sh *shardState) int {
	n := 0
	now := time.Now()
	for _, other := range r.shards {
		if other != sh && other.eligible(now) && other.breaker.State() != BreakerOpen {
			n++
		}
	}
	return n
}

// reloadShard POSTs the shard's reload endpoint (serve's opt-in
// /admin/reload) and treats any non-200 as a failed reload.
func (r *Router) reloadShard(ctx context.Context, sh *shardState) error {
	ans, err := sh.conns.exchange(ctx, 30*time.Second, http.MethodPost, r.cfg.ReloadPath, "", nil)
	if err != nil {
		return fmt.Errorf("cluster: reload %s: %w", sh.name, err)
	}
	if ans.status != http.StatusOK {
		return fmt.Errorf("cluster: reload %s: status %d: %s", sh.name, ans.status, ans.body[:min(len(ans.body), 4096)])
	}
	return nil
}

// awaitReady polls the shard's /readyz until it answers 200 or the
// deadline passes — the gate that keeps the sweep from touching shard
// N+1 while shard N is still coming back.
func (r *Router) awaitReady(ctx context.Context, sh *shardState) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if r.probeShard(sh, time.Second) {
			return nil
		}
		if !sleepCtx(ctx, 50*time.Millisecond) {
			return ctx.Err()
		}
	}
	return fmt.Errorf("cluster: shard %s did not become ready after reload", sh.name)
}
