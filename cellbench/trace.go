package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into the simulator, kept in memory and written
// out when the benchmark ends. Times are seconds since the benchmark
// started; Parent is 0 for a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans around the benchmark's own calls into core.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.origin).Seconds(),
	})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.origin).Seconds()
}

// manifest says exactly what ran and where.
type manifest struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Commit     string   `json:"commit"`
	Args       []string `json:"args"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
}

func newManifest(args []string, o options) manifest {
	return manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     gitCommit("."),
		Args:       args,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

// gitCommit reads the commit checked out in dir from .git without running
// git, or returns "unavailable" outside a git work tree.
func gitCommit(dir string) string {
	gitDir := filepath.Join(dir, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unavailable"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unavailable"
}
