package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is the host record every result carries.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the checked-out git commit when the tree is a git
	// repository, and otherwise "src-" plus a digest of the Go sources.
	Commit string `json:"commit"`
}

func newHostInfo(root string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commitOf(root),
	}
}

// commitOf resolves HEAD from root/.git without running git, falling back
// to a digest of every go.mod and .go file under root.
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(sha))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
