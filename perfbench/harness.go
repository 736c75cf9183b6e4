package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/serve"
)

// Server-side settings of the laced defaults the serving workloads
// reproduce.
const (
	lacedReqTimeout = 30 * time.Second
	lacedMaxTimeout = time.Minute
)

// liveServer is one resolution server behind a loopback listener.
type liveServer struct {
	srv   *serve.Server
	http  *http.Server
	done  chan struct{}
	url   string
	audit *audit.Log

	stopOnce sync.Once
	stopErr  error
}

// startServer builds the server, serves it on 127.0.0.1 and waits until
// /healthz answers.
func startServer(cfg serve.Config, client *http.Client) (*liveServer, error) {
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:   s,
		http:  &http.Server{Handler: s.Handler()},
		done:  make(chan struct{}),
		url:   "http://" + ln.Addr().String(),
		audit: cfg.Audit,
	}
	go func() {
		defer close(ls.done)
		_ = ls.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	resp, err := client.Get(ls.url + "/healthz")
	if err != nil {
		ls.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ls.stop()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return ls, nil
}

// stop drains the resolution server, closes the listener, waits for the
// serving goroutine and closes the audit log. Later calls return the
// first call's error.
func (ls *liveServer) stop() error {
	ls.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ls.srv.Shutdown(ctx) // an aborted drain still stops every handler
		ls.stopErr = ls.http.Shutdown(ctx)
		<-ls.done
		if ls.audit != nil {
			if err := ls.audit.Close(); ls.stopErr == nil {
				ls.stopErr = err
			}
		}
	})
	return ls.stopErr
}

// newClient returns an HTTP client holding at most cfg.conns
// connections, or one over cfg.transport when that is set.
func newClient(cfg runConfig) *http.Client {
	var t http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     cfg.conns,
		MaxIdleConnsPerHost: cfg.conns,
		IdleConnTimeout:     time.Minute,
	}
	if cfg.transport != nil {
		t = cfg.transport
	}
	return &http.Client{Transport: t, Timeout: 2 * lacedMaxTimeout}
}

// post sends body to url and returns the response body; a status other
// than 200 is an error.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}
