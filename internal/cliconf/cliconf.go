// Package cliconf is the one place the drishti binaries resolve their
// configuration knobs. Every knob has three layers with a single
// precedence rule — an explicit command-line flag beats a DRISHTI_*
// environment variable beats the built-in default — so `-parallel 4`,
// `DRISHTI_PARALLEL=4`, and the GOMAXPROCS fallback compose identically
// in drishti-bench, drishti-sim, and the rest of cmd/.
//
// Usage mirrors the flag package: register knobs before flag.Parse,
// then call Resolve afterwards (Resolve is when the env layer is
// consulted, because "was the flag explicitly set" is only knowable
// post-Parse):
//
//	cc := cliconf.New(flag.CommandLine)
//	parallel := cc.Int("parallel", "DRISHTI_PARALLEL", 0, "sweep worker-pool size")
//	flag.Parse()
//	if err := cc.Resolve(); err != nil { ... }
//
// A malformed environment value is a hard error, not a silent fallback:
// DRISHTI_PARALLEL=four should stop the run, not quietly simulate with
// the default and produce numbers nobody asked for.
package cliconf

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

// Set registers knobs on one flag.FlagSet and resolves the env layer
// after parsing. The zero value is not usable; call New.
type Set struct {
	fs  *flag.FlagSet
	env func(string) (string, bool) // swappable in tests
	res []func() error
}

// New returns a Set registering knobs on fs. Pass flag.CommandLine for
// a binary's top-level flags.
func New(fs *flag.FlagSet) *Set {
	return &Set{fs: fs, env: os.LookupEnv}
}

// SetEnv replaces the environment lookup (tests inject a map instead of
// mutating the process environment).
func (s *Set) SetEnv(lookup func(string) (string, bool)) { s.env = lookup }

// explicit reports whether the flag was set on the command line.
func (s *Set) explicit(name string) bool {
	found := false
	s.fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			found = true
		}
	})
	return found
}

// usage appends the env-var layer to a knob's help text so -h documents
// the full precedence chain without each binary repeating it.
func usage(text, env string) string {
	if env == "" {
		return text
	}
	return text + " (env " + env + ")"
}

// knob registers the common resolve step: if the flag was not set
// explicitly and env is present, parse applies it.
func (s *Set) knob(name, env string, parse func(string) error) {
	s.res = append(s.res, func() error {
		if env == "" || s.explicit(name) {
			return nil
		}
		v, ok := s.env(env)
		if !ok || v == "" {
			return nil
		}
		if err := parse(v); err != nil {
			return fmt.Errorf("cliconf: %s=%q: %w", env, v, err)
		}
		return nil
	})
}

// Int registers an int knob.
func (s *Set) Int(name, env string, def int, help string) *int {
	p := s.fs.Int(name, def, usage(help, env))
	s.knob(name, env, func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		*p = n
		return nil
	})
	return p
}

// Uint64 registers a uint64 knob.
func (s *Set) Uint64(name, env string, def uint64, help string) *uint64 {
	p := s.fs.Uint64(name, def, usage(help, env))
	s.knob(name, env, func(v string) error {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return err
		}
		*p = n
		return nil
	})
	return p
}

// Bool registers a bool knob. The env layer accepts strconv.ParseBool
// forms: 1/t/true turn the knob on and 0/f/false turn it off.
func (s *Set) Bool(name, env string, def bool, help string) *bool {
	p := s.fs.Bool(name, def, usage(help, env))
	s.knob(name, env, func(v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return err
		}
		*p = b
		return nil
	})
	return p
}

// String registers a string knob.
func (s *Set) String(name, env, def, help string) *string {
	p := s.fs.String(name, def, usage(help, env))
	s.knob(name, env, func(v string) error {
		*p = v
		return nil
	})
	return p
}

// Duration registers a time.Duration knob; the env layer uses
// time.ParseDuration forms ("30s", "2m").
func (s *Set) Duration(name, env string, def time.Duration, help string) *time.Duration {
	p := s.fs.Duration(name, def, usage(help, env))
	s.knob(name, env, func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		*p = d
		return nil
	})
	return p
}

// Resolve applies the environment layer to every knob whose flag was
// not set on the command line. Call it exactly once, after fs.Parse.
func (s *Set) Resolve() error {
	for _, r := range s.res {
		if err := r(); err != nil {
			return err
		}
	}
	return nil
}
