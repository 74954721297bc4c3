package obs

import (
	"log"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServePprof starts net/http/pprof on its own listener and mux, so profiling
// stays off a binary's service ports (and off http.DefaultServeMux). binary
// prefixes its log lines; Close the returned server to stop it.
func ServePprof(addr, binary string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("%s: debug listener: %v", binary, err)
		}
	}()
	log.Printf("%s: pprof on %s/debug/pprof/", binary, addr)
	return srv
}
