package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// Client speaks the transport's HTTP binding from the ingesting side. It is
// safe for concurrent use; each call is one HTTP request.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://10.0.0.1:8089"). hc == nil uses http.DefaultClient.
func NewClient(base string, hc *http.Client) (*Client, error) {
	if base == "" {
		return nil, fmt.Errorf("transport: empty server address")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}, nil
}

// SetHTTPClient substitutes the underlying http.Client. Call before the first
// request; the client is not otherwise synchronized.
func (c *Client) SetHTTPClient(hc *http.Client) {
	if hc != nil {
		c.hc = hc
	}
}

// do issues req. Every request carries an Ldp-Request-Id: the caller's
// context id when one is there (a router forwarding keeps the edge's id), a
// freshly minted one otherwise — so one logical request traces through every
// hop's logs.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	if req.Header.Get(obs.RequestIDHeader) == "" {
		id := obs.RequestID(req.Context())
		if id == "" {
			id = obs.NewRequestID()
		}
		req.Header.Set(obs.RequestIDHeader, id)
	}
	return c.hc.Do(req)
}

// PostReportsKeyed sends a batch of reports, cut into as many frames as the
// frame limits require (one frame for typical batches), and returns the
// server's accepted count: AppendReportsFrames, then PostFrames.
func (c *Client) PostReportsKeyed(ctx context.Context, reports []protocol.Report, key string) (int, error) {
	frames, err := AppendReportsFrames(nil, reports)
	if err != nil {
		return 0, err
	}
	return c.PostFrames(ctx, frames, key)
}

// PostFrames POSTs an already-framed /reports body — what PostReportsKeyed
// built, or what a router validated and forwards verbatim — and returns the
// server's accepted count. The server applies each frame atomically; on a
// transport error the response's accepted count says how many reports of
// this request landed. key is the request's idempotency key: a server that
// already absorbed a request under it replays its recorded response instead
// of absorbing again, so a retry after a lost HTTP response cannot
// double-count. An empty key sends an unkeyed (non-idempotent) request.
func (c *Client) PostFrames(ctx context.Context, frames []byte, key string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/reports", bytes.NewReader(frames))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	resp, err := c.do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	var ir IngestResponse
	jsonErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ir)
	if resp.StatusCode != http.StatusOK {
		msg := ir.Error
		if jsonErr != nil {
			msg = ""
		}
		return ir.Accepted, statusError(resp, msg)
	}
	if jsonErr != nil {
		return 0, fmt.Errorf("transport: bad ingest response: %w", jsonErr)
	}
	return ir.Accepted, nil
}

// PostQuery sends one workload query and streams the result rows to fn in
// order; returning false from fn stops the stream early (the remaining body
// is discarded). The returned info describes the snapshot the answers were
// reconstructed from and which row fields are populated. A server predating
// the query engine answers 404, surfaced as a StatusError.
func (c *Client) PostQuery(ctx context.Context, q QueryRequest, fn func(QueryRow) bool) (QueryResultInfo, error) {
	var buf bytes.Buffer
	if err := EncodeQueryFrame(&buf, q); err != nil {
		return QueryResultInfo{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return QueryResultInfo{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.do(req)
	if err != nil {
		return QueryResultInfo{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		var ir IngestResponse
		msg := ""
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ir) == nil {
			msg = ir.Error
		}
		return QueryResultInfo{}, statusError(resp, msg)
	}
	return DecodeQueryResult(resp.Body, fn)
}

// Snap fetches the server's full snapshot: accumulator, count, epoch, and
// mechanism identity (epoch and identity are zero against a v1 server).
func (c *Client) Snap(ctx context.Context) (Snapshot, error) {
	resp, err := c.get(ctx, "/snapshot")
	if err != nil {
		return Snapshot{}, err
	}
	defer drain(resp)
	return DecodeSnapshotFrame(resp.Body)
}

// SnapAt fetches the snapshot the server's epoch history retains for the
// given epoch (GET /snapshot?epoch=N). With nearest, the newest retained
// epoch at or below the requested one is served instead of requiring an exact
// match. An epoch the server has coarsened away — or a server with no history
// at all — answers 404, surfaced as a StatusError whose message carries the
// retained range.
func (c *Client) SnapAt(ctx context.Context, epoch uint64, nearest bool) (Snapshot, error) {
	path := "/snapshot?epoch=" + strconv.FormatUint(epoch, 10)
	if nearest {
		path += "&nearest=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return Snapshot{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return Snapshot{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return Snapshot{}, statusError(resp, strings.TrimSpace(string(body)))
	}
	return DecodeSnapshotFrame(resp.Body)
}

// Healthz fetches the server's liveness report and mechanism identity.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	resp, err := c.get(ctx, "/healthz")
	if err != nil {
		return Health{}, err
	}
	defer drain(resp)
	var h Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		return Health{}, fmt.Errorf("transport: bad healthz response: %w", err)
	}
	return h, nil
}

// Readyz asks the server's readiness probe: (true, "") for a shard that
// should receive traffic, (false, reason) for one that is alive but gated
// out (draining, recovering). A server predating /readyz answers 404; its
// liveness probe stands in, so old shards read as ready-while-alive. The
// error is non-nil only when the shard could not be reached at all.
func (c *Client) Readyz(ctx context.Context) (bool, string, error) {
	resp, err := c.get(ctx, "/readyz")
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			switch se.StatusCode {
			case http.StatusNotFound:
				// Pre-readiness server: fall back to liveness.
				if _, herr := c.Healthz(ctx); herr != nil {
					return false, "", herr
				}
				return true, "", nil
			case http.StatusServiceUnavailable:
				reason := se.Msg
				// The 503 body is the readyz JSON; surface its reason field
				// when it parses, the raw text otherwise.
				var rr struct {
					Ready  bool   `json:"ready"`
					Reason string `json:"reason"`
				}
				if jerr := json.Unmarshal([]byte(se.Msg), &rr); jerr == nil && rr.Reason != "" {
					reason = rr.Reason
				}
				return false, reason, nil
			}
		}
		return false, "", err
	}
	defer drain(resp)
	var rr struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rr); err != nil {
		return false, "", fmt.Errorf("transport: bad readyz response: %w", err)
	}
	return rr.Ready, rr.Reason, nil
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		drain(resp)
		return nil, statusError(resp, strings.TrimSpace(string(body)))
	}
	return resp, nil
}

// statusError builds the StatusError for a non-2xx response, capturing the
// Retry-After header (delta-seconds or HTTP-date) so the retry loop can honor
// a draining server's pacing.
func statusError(resp *http.Response, msg string) *StatusError {
	se := &StatusError{StatusCode: resp.StatusCode, Msg: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(ra); err == nil {
			if d := time.Until(at); d > 0 {
				se.RetryAfter = d
			}
		}
	}
	return se
}

// drain consumes what remains of a response body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
