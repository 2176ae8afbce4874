package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"time"
)

// ProbeConfig tunes the health prober that drives ring membership.
type ProbeConfig struct {
	// Interval between probe sweeps. <= 0 defaults to 1s.
	Interval time.Duration
	// Timeout per shard probe. <= 0 defaults to 500ms.
	Timeout time.Duration
	// EjectAfter consecutive probe failures removes the shard from the
	// routing set. <= 0 defaults to 2.
	EjectAfter int
	// ReadmitAfter consecutive probe successes puts it back. <= 0
	// defaults to 2. Together with EjectAfter this is the hysteresis: a
	// shard flapping at the probe frequency neither leaves nor rejoins
	// the ring on a single observation.
	ReadmitAfter int
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	return c
}

// StartProber launches the background /readyz probe loop and returns a
// stop function. Ejection and readmission both require consecutive
// observations (hysteresis), so one dropped probe packet does not empty
// the ring and one lucky probe does not readmit a still-sick shard.
// Idempotent: a second call while running returns a no-op stop.
func (r *Router) StartProber() (stop func()) {
	if !r.probing.CompareAndSwap(false, true) {
		return func() {}
	}
	cfg := r.cfg.Probe.withDefaults()
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-r.stopProb:
				return
			case <-t.C:
				r.ProbeNow()
			}
		}
	}()
	return func() {
		close(r.stopProb)
		<-done
	}
}

// ProbeNow runs one synchronous probe sweep over every shard — the
// prober loop's body, exported so tests (and operators via a future
// admin hook) can advance membership deterministically.
func (r *Router) ProbeNow() {
	cfg := r.cfg.Probe.withDefaults()
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	for _, sh := range r.shards {
		ok := r.probeShard(sh, cfg.Timeout)
		if ok {
			r.observeRetrieval(sh, cfg.Timeout)
			sh.probeFails = 0
			sh.probeOKs++
			if !sh.available.Load() && sh.probeOKs >= cfg.ReadmitAfter {
				sh.available.Store(true)
				r.readmissions.With(sh.name).Inc()
				r.availGauge.With(sh.name).Set(1)
				r.log.Info("shard readmitted", "shard", sh.name)
			}
		} else {
			sh.probeOKs = 0
			sh.probeFails++
			if sh.available.Load() && sh.probeFails >= cfg.EjectAfter {
				sh.available.Store(false)
				r.ejections.With(sh.name).Inc()
				r.availGauge.With(sh.name).Set(0)
				r.log.Warn("shard ejected", "shard", sh.name, "failures", sh.probeFails)
			}
		}
		r.brkGauge.With(sh.name).Set(float64(sh.breaker.State()))
	}
}

// observeRetrieval reads the shard's /healthz retrieval field — the mode
// the shard is actually serving — and records it for the router's own
// /healthz. When the shard config names an expected mode, drift is logged
// once per episode (probeMu, held by the caller, guards the latch): a
// mixed-mode fleet returns different rankings for the same user depending
// on which shard failover lands on. Best-effort — an unreachable or
// pre-retrieval-era shard simply leaves the last observation standing.
func (r *Router) observeRetrieval(sh *shardState, timeout time.Duration) {
	ans, err := sh.conns.exchange(context.Background(), timeout, http.MethodGet, "/healthz", "", nil)
	if err != nil || ans.status != http.StatusOK {
		return
	}
	var body struct {
		Retrieval string `json:"retrieval"`
	}
	if err := json.Unmarshal(ans.body, &body); err != nil || body.Retrieval == "" {
		return
	}
	sh.retrieval.Store(body.Retrieval)
	switch {
	case sh.expectRetrieval == "" || body.Retrieval == sh.expectRetrieval:
		sh.retrievalWarned = false
	case !sh.retrievalWarned:
		sh.retrievalWarned = true
		r.log.Warn("shard retrieval mode drift",
			"shard", sh.name, "expected", sh.expectRetrieval, "observed", body.Retrieval)
	}
}

// probeShard asks one shard's /readyz; only a 200 within the timeout
// counts as healthy — a draining shard (readyz 503) is correctly treated
// as leaving the ring even though its process is alive.
func (r *Router) probeShard(sh *shardState, timeout time.Duration) bool {
	ans, err := sh.conns.exchange(context.Background(), timeout, http.MethodGet, "/readyz", "", nil)
	return err == nil && ans.status == http.StatusOK
}
