package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// NewMux returns a mux with the shared diagnostic surface mounted:
// GET /metrics (Prometheus text) and the /debug/pprof handlers.
// Callers add their own routes on top.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HTTPServer is a listening HTTP server with the serve/drain lifecycle
// both eedse's progress endpoint and fleetd's API server need: bind,
// serve in the background, shut down with a bounded drain.
type HTTPServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}

	mu       sync.Mutex
	serveErr error
}

// Serve binds addr (":0" picks an ephemeral port) and starts serving h
// in a background goroutine.
func Serve(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{
		ln:   ln,
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr returns the bound address (with the resolved port).
func (s *HTTPServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains in-flight requests for at most timeout, then forces
// the server closed. It returns the drain error or any earlier serve
// error. Safe on a nil receiver and safe to call more than once.
func (s *HTTPServer) Shutdown(timeout time.Duration) error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close()
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serveErr != nil {
		return s.serveErr
	}
	return err
}
