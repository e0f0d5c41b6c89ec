package simlint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
)

// Main is the entry point of the suite's vet tool, tools/simlint. It
// speaks the protocol `go vet -vettool` expects — -V=full for build
// caching, -flags for flag discovery, and a JSON .cfg unit file per
// package — and doubles as a standalone checker over source
// directories:
//
//	go build -o /tmp/simlint ./tools/simlint
//	go vet -vettool=/tmp/simlint ./...        # vet protocol
//	/tmp/simlint [-json] ./internal/network   # standalone, oflint-codec JSON
//
// Exit status: 0 clean, 2 when any diagnostic is reported.
func Main() {
	log.SetFlags(0)
	log.SetPrefix("simlint: ")
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			// No analyzer flags; the go command wants a JSON list.
			fmt.Println("[]")
			return
		}
	}
	jsonOut := false
	var rest []string
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		default:
			rest = append(rest, a)
		}
	}
	switch {
	case len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg"):
		runVetUnit(rest[0], jsonOut)
	case len(rest) >= 1:
		runDirs(rest, jsonOut)
	default:
		log.Fatal("usage: simlint unit.cfg (via go vet -vettool) | simlint [-json] dir...")
	}
}

// runVetUnit analyzes one package unit described by a JSON config file.
// The facts file is always written — the go command caches it and feeds
// it to dependent units, which is how hotpath sees across packages.
func runVetUnit(cfgPath string, jsonOut bool) {
	u, cfg, err := LoadUnit(cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.VetxOutput != "" {
		if err := WriteFacts(u, cfg.VetxOutput); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		// Dependency-only run: facts written, nothing to report.
		return
	}
	diags := Run(u, AllAnalyzers)
	emit(diags, jsonOut)
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// runDirs analyzes source directories in-process (no vet protocol, no
// cross-package facts): the entry point for spot checks and the -json
// findings mode.
func runDirs(dirs []string, jsonOut bool) {
	var diags []Diagnostic
	for _, dir := range dirs {
		u, err := LoadDir(dir, filepath.ToSlash(filepath.Clean(dir)), false)
		if err != nil {
			log.Fatal(err)
		}
		diags = append(diags, Run(u, AllAnalyzers)...)
	}
	emit(diags, jsonOut)
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func emit(diags []Diagnostic, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ToFindings(diags)); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
	}
}

// printVersion emits the fingerprint line the go command's build cache
// requires from a -vettool: "<name> version devel ... buildID=<hex>",
// where the hex digest covers the executable so rebuilding the tool
// invalidates cached vet results.
func printVersion() {
	name := os.Args[0]
	f, err := os.Open(name)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(name), h.Sum(nil))
}
