package feedback

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"time"

	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/serve"
	"clapf/internal/store"
)

// Promotion outcomes — the label values of clapf_promotions_total.
const (
	// PromoteOK: a new generation with the folded log went live.
	PromoteOK = "ok"
	// PromoteNoop: no events beyond the watermark; nothing to do.
	PromoteNoop = "noop"
	// PromoteFenced: another swap (operator SIGHUP, admin reload) won the
	// race between export and promote; the stale export was discarded —
	// never written to the model path — and the old — well, the *other* —
	// generation keeps serving.
	PromoteFenced = "fenced"
	// PromoteError: export, swap, or post-swap publish failed. On an
	// export or swap failure the old generation keeps serving; on a
	// publish failure the promoted generation is live but the on-disk
	// model lags, which WAL replay covers on restart. Either way the WAL
	// keeps accumulating (the watermark file was not pruned).
	PromoteError = "error"
)

// PromoteConfig parameterizes the background promotion loop.
type PromoteConfig struct {
	// Interval between promotion attempts. Default 30s.
	Interval time.Duration
	// ModelPath is the export target — the same path cmd/clapf-serve
	// loads and reloads from, so the on-disk artifact and the serving
	// generation advance together and a post-crash restart finds the
	// promoted factors with their FeedbackSeq watermark.
	ModelPath string
	// Prune removes WAL segments fully below the watermark after a
	// successful promotion. Off by default: retained segments are what
	// rebuilds ingested-item exclusion history on a cold restart, so
	// pruning trades disk for forgetting old exclusions.
	Prune bool
	// Logger receives promotion diagnostics; nil discards.
	Logger *slog.Logger
}

// Promoter periodically folds the accumulated feedback log into a
// re-exported model and promotes it through the server's atomic hot-swap
// with generation fencing.
//
// The promotion state machine, in order, with the crash story at each
// edge (every state recovers to consistency because acknowledged events
// are always durable in the WAL and the model file carries the watermark
// of what it has absorbed):
//
//	snapshot  — capture (S, merged histories) under the ingest lock.
//	sync      — force the WAL durable through S: an event is recorded
//	            before the fsync its ack waits for.
//	export    — re-solve each touched user's factors into a copy of the
//	            base, in the base's own representation (a float64 or a
//	            float32 file), and write it to a temp file beside
//	            ModelPath with Meta.FeedbackSeq = S. The shared model
//	            path is NOT touched yet: an operator may be deploying a
//	            new trained model to it right now, and an export folded
//	            from the old base must never clobber that. Crash
//	            before/during: old file + old watermark remain; restart
//	            replays everything it needs.
//	promote   — store.Open the export — so what goes live is the file's
//	            own bytes, mapped if the file says so — and
//	            Install(it, {S, gen}): under the swap lock, abort unless
//	            the server generation still equals the one the export
//	            was computed against; otherwise rebuild the overlay
//	            (users fully at or below S drop out; later events
//	            re-solve) and bump the generation. Failure or fence
//	            leaves the previous generation serving untouched and
//	            discards the temp export; nothing is closed — a mapping
//	            nobody installed is retired by its finalizer.
//	publish   — rename the temp export (the inode just installed) onto
//	            ModelPath, after re-checking that no further swap
//	            superseded ours. Crash between
//	            promote and publish: the old file + old watermark
//	            remain; restart replays seq > old-watermark — factors
//	            identical (fold-in is a pure function of the merged
//	            history). Crash after: the new file claims S; restart
//	            replays only seq > S — same factors either way.
//	prune     — optionally drop WAL segments fully below S. Runs only
//	            after a durable publish: the on-disk watermark must
//	            cover everything pruning forgets.
type Promoter struct {
	ing *Ingestor
	srv *serve.Server
	cfg PromoteConfig

	// beforeSwap, when set, runs between export and the fenced swap —
	// the chaos suite injects racing reloads into exactly that window.
	beforeSwap func()
}

// NewPromoter wires a promoter; cfg.ModelPath must be set.
func NewPromoter(ing *Ingestor, srv *serve.Server, cfg PromoteConfig) (*Promoter, error) {
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("feedback: promoter needs a model path")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	return &Promoter{ing: ing, srv: srv, cfg: cfg}, nil
}

// Run executes the promotion loop until ctx is canceled. Each attempt's
// outcome is counted in clapf_promotions_total; errors are logged and the
// loop continues — a failed promotion never stops serving, and the next
// tick retries with a fresh snapshot.
func (p *Promoter) Run(ctx context.Context) {
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			outcome, err := p.PromoteOnce()
			if err != nil {
				p.cfg.Logger.Error("feedback: promotion attempt failed",
					"outcome", outcome, "err", err)
			} else if outcome == PromoteOK {
				p.cfg.Logger.Info("feedback: promoted folded model",
					"generation", p.srv.Generation(), "watermark", p.ing.Folded())
			}
		}
	}
}

// PromoteOnce runs a single promotion attempt and returns its outcome.
func (p *Promoter) PromoteOnce() (string, error) {
	outcome, err := p.promote()
	p.ing.countPromotion(outcome)
	return outcome, err
}

func (p *Promoter) promote() (string, error) {
	gen := p.srv.Generation()
	base := p.srv.BaseParams()
	seq, users := p.ing.snapshot()
	if seq <= p.ing.Folded() {
		return PromoteNoop, nil
	}
	// Everything the export bakes must be durable before the watermarked
	// file can exist: a model claiming seq S while the WAL could lose an
	// event <= S would break replay coverage.
	if err := p.ing.WAL().Sync(); err != nil {
		return PromoteError, err
	}
	folded := mf.NewOverlay(base)
	for u, merged := range users {
		if err := folded.FoldIn(u, merged, p.ing.cfg.FoldInReg); err != nil {
			return PromoteError, fmt.Errorf("feedback: folding user %d: %w", u, err)
		}
	}
	export, err := folded.Bake()
	if err != nil {
		return PromoteError, err
	}
	// Export beside the shared model path; it becomes ModelPath only
	// after the fenced install has made this export the live generation.
	tmpPath := p.cfg.ModelPath + ".promote"
	if err := store.Export(tmpPath, export, &store.Meta{FeedbackSeq: seq}); err != nil {
		return PromoteError, err
	}
	// Every way out but a publish discards the export; after a publish
	// the name is gone and this does nothing.
	defer os.Remove(tmpPath)
	if p.beforeSwap != nil {
		p.beforeSwap()
	}
	candidate, _, err := store.Open(tmpPath)
	if err == nil {
		err = p.srv.Install(candidate, serve.InstallOpts{Folded: seq, ExpectGen: &gen})
	}
	if errors.Is(err, serve.ErrGenerationFenced) {
		// Another reload won between export and promote. The export is
		// stale relative to the new generation's base; discard it — the
		// next tick re-exports against the winner. Nothing was swapped
		// and the deployed model file was never touched.
		return PromoteFenced, nil
	}
	if err != nil {
		return PromoteError, err
	}
	// Publish. Re-check that our swap (gen+1) is still the live
	// generation: a reload landing in the instant since would have
	// deployed a fresher model file that this export must not overwrite.
	if p.srv.Generation() != gen+1 {
		return PromoteFenced, nil
	}
	if err := store.Publish(tmpPath, p.cfg.ModelPath); err != nil {
		// The promoted generation is live; only the on-disk copy lags (or
		// its rename is not yet durable). A restart before the next
		// successful publish loads the old file and replays the WAL —
		// factors identical — but pruning would break exactly that
		// replay, so skip it.
		return PromoteError, fmt.Errorf("feedback: promoted generation %d is live but publishing its export failed: %w",
			p.srv.Generation(), err)
	}
	if p.cfg.Prune {
		if removed, perr := p.ing.WAL().PruneTo(seq); perr != nil {
			p.cfg.Logger.Warn("feedback: pruning WAL after promotion failed", "err", perr)
		} else if removed > 0 {
			p.cfg.Logger.Info("feedback: pruned folded WAL segments", "removed", removed, "watermark", seq)
		}
	}
	return PromoteOK, nil
}
