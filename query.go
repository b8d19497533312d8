package ldp

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/transport"
)

// statusErrorf builds an error the transport's handlers map to an HTTP
// status: /query validation failures answer cleanly instead of 422, and a
// failed WAL append answers /reports a retryable 503 instead of 400.
func statusErrorf(status int, format string, args ...any) error {
	return &transport.StatusError{StatusCode: status, Msg: fmt.Sprintf(format, args...)}
}

// answerQuery resolves one decoded query request against a snapshot and
// streams the result frames to out. The pool supplies (and caches) the
// named workload, its digest and the estimator. Validation errors surface before the first byte is written,
// which is what lets the transport turn them into HTTP statuses.
func answerQuery(pool *EstimatorPool, agg Aggregator, snap Snapshot, q transport.QueryRequest, out io.Writer) error {
	domain := agg.Domain()
	if q.Domain != 0 && q.Domain != domain {
		return statusErrorf(http.StatusBadRequest, "query names domain %d, this collector aggregates domain %d", q.Domain, domain)
	}
	w, err := pool.namedWorkload(q.Workload, domain)
	if err != nil {
		return statusErrorf(http.StatusBadRequest, "%v", err)
	}
	if q.Digest != "" {
		if got := pool.workloadDigest(w); got != q.Digest {
			return statusErrorf(http.StatusBadRequest,
				"workload %q at domain %d digests %s, query expects %s — client and server disagree on the workload", q.Workload, domain, got, q.Digest)
		}
	}
	est, err := pool.Estimator(agg, w)
	if err != nil {
		return err
	}
	if err := est.Check(snap); err != nil {
		return statusErrorf(http.StatusConflict, "%v", err)
	}
	info := transport.QueryResultInfo{
		Count:       snap.Count(),
		Epoch:       snap.Epoch(),
		TotalRows:   w.Queries(),
		HasVariance: q.WantVariance || q.WantCI,
		HasCI:       q.WantCI,
	}
	qw, err := transport.NewQueryResultWriter(out, info)
	if err != nil {
		return err
	}
	var werr error
	switch {
	case q.WantCI:
		err = est.AnswerStream(snap, q.Level, func(a QueryAnswer) bool {
			werr = qw.WriteRow(transport.QueryRow{Answer: a.Answer, Variance: a.Variance, Low: a.CI.Low, High: a.CI.High})
			return werr == nil
		})
	case q.WantVariance:
		var answers []float64
		answers, err = est.Answers(snap)
		if err == nil {
			err = est.VarianceStream(snap, func(i int, v float64) bool {
				werr = qw.WriteRow(transport.QueryRow{Answer: answers[i], Variance: v})
				return werr == nil
			})
		}
	default:
		var answers []float64
		answers, err = est.Answers(snap)
		for _, a := range answers {
			if err != nil || werr != nil {
				break
			}
			werr = qw.WriteRow(transport.QueryRow{Answer: a})
		}
	}
	if werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	return qw.Close()
}

// Query serves POST /query: a workload answered over the collector's current
// snapshot, with the service's estimator pool amortizing workload and
// estimator resolution across queries and tenants.
func (b collectorBackend) Query(q transport.QueryRequest, w io.Writer) error {
	return answerQuery(b.pool, b.c.agg, b.c.Snap(), q, w)
}
