package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
)

// NodeDownError marks a node-level failure (transport error, draining,
// or a 5xx) as opposed to a job-level one: the coordinator reacts by
// requeueing the sub-job on another node, never by failing the parent.
type NodeDownError struct {
	Node string
	Err  error
}

func (e *NodeDownError) Error() string { return fmt.Sprintf("node %s down: %v", e.Node, e.Err) }
func (e *NodeDownError) Unwrap() error { return e.Err }

// IsNodeDown reports whether err is a node-level failure.
func IsNodeDown(err error) bool {
	var nd *NodeDownError
	return errors.As(err, &nd)
}

// NodeClient speaks the crossd HTTP API to one worker node.
type NodeClient struct {
	// Name is the node's ring identity; BaseURL its API root (no
	// trailing slash).
	Name    string
	BaseURL string
	// HTTP is the transport (nil = a client with a sane timeout).
	HTTP *http.Client
}

func (c *NodeClient) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	// The timeout is the coordinator's only detector for a worker that
	// accepts connections but never answers; serve holds /result for
	// less than it, so a healthy worker always answers in time.
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *NodeClient) down(err error) error { return &NodeDownError{Node: c.Name, Err: err} }

// do runs one request, classifying transport failures as node-down.
func (c *NodeClient) do(req *http.Request) (*http.Response, error) {
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, c.down(err)
	}
	return resp, nil
}

func decodeError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		return errors.New(body.Error)
	}
	return fmt.Errorf("http %d", resp.StatusCode)
}

// SubmitWait submits the spec and blocks until the node produces the
// result, honoring 429 Retry-After backpressure. Job-level failures
// (invalid spec, failed or cancelled execution) return a plain error;
// node-level ones a NodeDownError.
func (c *NodeClient) SubmitWait(ctx context.Context, spec serve.JobSpec) (*serve.JobResult, error) {
	for {
		st, retry, err := c.submit(ctx, spec)
		if err != nil {
			return nil, err
		}
		if retry > 0 {
			if err := sleep(ctx, retry); err != nil {
				return nil, err
			}
			continue
		}
		return c.wait(ctx, st.ID)
	}
}

// submit posts the spec once. A backpressure rejection returns a
// non-zero retry hint instead of an error.
func (c *NodeClient) submit(ctx context.Context, spec serve.JobSpec) (st serve.JobStatus, retry time.Duration, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return st, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return st, 0, c.down(err)
		}
		return st, 0, nil
	case http.StatusTooManyRequests:
		retry = time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			retry = time.Duration(s) * time.Second
		}
		return st, retry, nil
	case http.StatusServiceUnavailable:
		return st, 0, c.down(decodeError(resp))
	case http.StatusBadRequest:
		return st, 0, fmt.Errorf("node %s rejected spec: %w", c.Name, decodeError(resp))
	default:
		return st, 0, c.down(decodeError(resp))
	}
}

// wait blocks on the node's held result request until the job is
// terminal. The node answers 202 when its hold elapses first; wait then
// asks again at once — the node, not a timer here, decides when the
// result is ready. A failed or cancelled job (409) is a job-level
// error, never a node-down verdict.
func (c *NodeClient) wait(ctx context.Context, id string) (*serve.JobResult, error) {
	url := c.BaseURL + "/api/v1/jobs/" + id + "/result"
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.do(req)
		if err != nil {
			return nil, err
		}
		var res serve.JobResult
		switch resp.StatusCode {
		case http.StatusOK:
			if err = json.NewDecoder(resp.Body).Decode(&res); err != nil {
				err = c.down(err)
			}
		case http.StatusAccepted:
			io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
			resp.Body.Close()
			continue
		case http.StatusConflict:
			err = fmt.Errorf("node %s: job %s: %w", c.Name, id, decodeError(resp))
		default:
			err = c.down(decodeError(resp))
		}
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		return &res, nil
	}
}

// CacheGet probes the node's content-addressed cache. A miss (or any
// failure — the tier is best-effort) returns ok=false.
func (c *NodeClient) CacheGet(ctx context.Context, key string) ([]byte, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/v1/cache/"+key, nil)
	if err != nil {
		return nil, false
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false
	}
	return data, true
}

// CachePut offers a finished result to the node's cache (best-effort).
func (c *NodeClient) CachePut(ctx context.Context, key string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.BaseURL+"/api/v1/cache/"+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	return nil
}

// MetricsText fetches the node's Prometheus exposition.
func (c *NodeClient) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", c.down(decodeError(resp))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", c.down(err)
	}
	return string(data), nil
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
