package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// env stamps every result with what it was measured on and with.
type env struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	PageSize    int     `json:"page_size"`
	PoolBytes   int64   `json:"pool_bytes"`   // 0 = registry default (64 MiB)
	DecodeBytes int64   `json:"decode_bytes"` // 0 = registry default (16 MiB)
	MaxOpen     int     `json:"max_open"`     // 0 = registry default (16)
	Durability  string  `json:"durability"`
	Tenants     int     `json:"tenants"`
	TenantNodes int     `json:"tenant_nodes"`
	WorkDir     string  `json:"work_dir"`
	WorkDirFS   string  `json:"work_dir_fs"`
}

func captureEnv(cfg config, wl workload) env {
	return env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, PageSize: pageSize,
		PoolBytes: wl.poolBytes, DecodeBytes: wl.decodeBytes, MaxOpen: wl.maxOpen,
		Durability: "sync", Tenants: wl.tenants, TenantNodes: wl.nodes(cfg),
		WorkDir: filepath.Join(cfg.out, "work"), WorkDirFS: fsType(cfg.out),
	}
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(sha))
		}
		return name
	}
	return ref
}

// fsType names the filesystem dir lives on, from /proc/mounts (longest
// mount-point prefix); "unknown" where there is no /proc.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// report prints one result: every metric by name, value and unit.
func report(w io.Writer, res *result) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	e := res.Env
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%g samples=%d wall=%.1fs attempted=%d failed=%d correct=%v\n",
		res.Workload, kind, e.Seed, e.Seconds, res.Samples, res.WallS, res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(w, "   env: nproc=%d GOMAXPROCS=%d %s commit=%s page=%d pool=%d decode=%d max_open=%d durability=%s tenants=%d×%d nodes fs=%s stream=%s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.PageSize, e.PoolBytes, e.DecodeBytes, e.MaxOpen,
		e.Durability, e.Tenants, e.TenantNodes, e.WorkDirFS, res.StreamHash)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, wn := range res.Warnings {
		fmt.Fprintf(w, "   WARNING %s\n", wn)
	}
	for _, n := range sortedNames(res.Metrics) {
		fmt.Fprintf(w, "   %-44s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range sortedNames(res.Extra) {
		fmt.Fprintf(w, "   (%s)%*s %14.4f %s\n", n, 42-len(n), "", res.Extra[n].Value, res.Extra[n].Unit)
	}
}
