package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Env is the environment stamp every result carries.
type Env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
}

// Stamp describes the running process and the checkout at repoRoot.
func Stamp(repoRoot string) Env {
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     gitCommit(repoRoot),
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// gitCommit reads HEAD without running git: the benchmark also runs in
// exported checkouts that have neither the tool nor the directory.
func gitCommit(repoRoot string) string {
	head, err := os.ReadFile(filepath.Join(repoRoot, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(repoRoot, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(repoRoot, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// Run is the outcome of one workload run, traced or not.
type Run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Command regenerates this run from the repository root.
	Command   string           `json:"command"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	// Detail carries what the metric tables leave out: every percentile
	// and sample count per phase, the check that failed, and so on.
	Detail map[string]any `json:"detail,omitempty"`
}

// File is the result-file envelope: one environment, any number of runs.
type File struct {
	Env  Env   `json:"env"`
	Runs []Run `json:"runs"`
}

// Append adds runs to the result file at path, creating it if needed. Runs
// from another environment are refused: their medians must not be mixed.
func Append(path string, env Env, runs []Run) error {
	f := File{Env: env}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("result file %s: %w", path, err)
		}
		if f.Env != env {
			return fmt.Errorf("result file %s was written in another environment (%+v, now %+v)", path, f.Env, env)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	f.Runs = append(f.Runs, runs...)
	out, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Load reads a result file.
func Load(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("result file %s: %w", path, err)
	}
	return f, nil
}

// ContractLine renders the one-line JSON object the driver reads from the
// last line of standard output.
func (r Run) ContractLine() (string, error) {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b), err
}
