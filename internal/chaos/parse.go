package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/des"
)

// The schedule language: one fault per line, blank lines and #-comments
// ignored.
//
//	crash at 2s..8s count 2 jitter 300ms group burst
//	commit-crash at 1s..30s count 2
//	partition at 2s..4s drop 0.85 group burst
//	brownout at 6s..9s drop 0.3 slow 2.5
//	storage-outage at 7s..8s
//	storage-brownout at 2s..10s rate 0.5
//	bitflip at 1200ms..5s count 4
//	crash-during-drain at 1s..20s phase deregister
//	domain-crash at 5s..20s domain d1
//
// Every line is "<kind> at <from>..<to>" followed by optional key/value
// pairs (jitter <dur>, count <n> with n >= 1, group <name>, drop <p>,
// slow <x>, rate <p>, phase <name>, domain <name>). Durations use Go syntax ("1.5s", "300ms") and denote
// virtual time. ParseSchedule returns a typed error naming the offending
// line for any malformed input; it never panics, however hostile the
// bytes (FuzzParseSchedule holds it to that).

// kindNames maps the language's kind tokens to Kind values.
var kindNames = map[string]Kind{
	"crash":              Crash,
	"commit-crash":       CommitCrash,
	"partition":          Partition,
	"brownout":           Brownout,
	"storage-outage":     StorageOutage,
	"storage-brownout":   StorageBrownout,
	"bitflip":            BitFlip,
	"crash-during-drain": DrainCrash,
	"domain-crash":       DomainCrash,
}

// ParseSchedule parses the schedule language and validates the result.
func ParseSchedule(text string) (*Schedule, error) {
	var s Schedule
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		sp, err := parseSpec(fields)
		if err != nil {
			return nil, fmt.Errorf("chaos: line %d: %w", ln+1, err)
		}
		s.Specs = append(s.Specs, sp)
	}
	if len(s.Specs) == 0 {
		return nil, fmt.Errorf("chaos: schedule has no fault specs")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// parseSpec parses one non-empty line's fields into a Spec.
func parseSpec(fields []string) (Spec, error) {
	var sp Spec
	kind, ok := kindNames[fields[0]]
	if !ok {
		return sp, fmt.Errorf("unknown fault kind %q", fields[0])
	}
	sp.Kind = kind
	if len(fields) < 3 || fields[1] != "at" {
		return sp, fmt.Errorf("%s: want %q followed by a window, got %v", fields[0], "at", fields[1:])
	}
	from, to, err := parseWindow(fields[2])
	if err != nil {
		return sp, fmt.Errorf("%s: %w", fields[0], err)
	}
	sp.From, sp.To = from, to
	rest := fields[3:]
	if len(rest)%2 != 0 {
		return sp, fmt.Errorf("%s: dangling option %q (options are key/value pairs)", fields[0], rest[len(rest)-1])
	}
	for i := 0; i < len(rest); i += 2 {
		key, val := rest[i], rest[i+1]
		switch key {
		case "jitter":
			if sp.Jitter, err = parseDur(val); err != nil {
				return sp, fmt.Errorf("jitter: %w", err)
			}
		case "count":
			n, err := strconv.Atoi(val)
			if err != nil {
				return sp, fmt.Errorf("count %q: %w", val, err)
			}
			// Only the struct's zero value means the default of one: a
			// written count says how many events there are.
			if n < 1 {
				return sp, fmt.Errorf("%s: count %d (a written count is at least 1)", fields[0], n)
			}
			sp.Count = n
		case "group":
			sp.Group = val
		case "drop":
			if sp.Drop, err = parseProb(val); err != nil {
				return sp, fmt.Errorf("drop: %w", err)
			}
		case "slow":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return sp, fmt.Errorf("slow %q: %w", val, err)
			}
			if !(f >= 0) || f > maxSlowFactor { // NaN fails the first test
				return sp, fmt.Errorf("slow factor %v out of [0, %v]", f, float64(maxSlowFactor))
			}
			sp.Slow = f
		case "rate":
			if sp.Rate, err = parseProb(val); err != nil {
				return sp, fmt.Errorf("rate: %w", err)
			}
		case "phase":
			sp.Phase = val
		case "domain":
			sp.Domain = val
		default:
			return sp, fmt.Errorf("%s: unknown option %q", fields[0], key)
		}
	}
	return sp, nil
}

// parseWindow parses "<from>..<to>" with both bounds Go durations.
func parseWindow(s string) (from, to des.Time, err error) {
	lo, hi, ok := strings.Cut(s, "..")
	if !ok {
		return 0, 0, fmt.Errorf("window %q: want <from>..<to>", s)
	}
	if from, err = parseDur(lo); err != nil {
		return 0, 0, fmt.Errorf("window start: %w", err)
	}
	if to, err = parseDur(hi); err != nil {
		return 0, 0, fmt.Errorf("window end: %w", err)
	}
	return from, to, nil
}

// parseDur parses a Go duration literal into virtual time. Durations in
// the schedule are virtual-clock deltas; time.ParseDuration is only the
// lexer (no wall clock is read).
func parseDur(s string) (des.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("duration %q: %w", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("duration %q is negative", s)
	}
	return des.Time(d.Nanoseconds()), nil
}

// parseProb parses a probability literal, requiring [0, 1).
func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("probability %q: %w", s, err)
	}
	if !(p >= 0 && p < 1) { // written to also reject NaN
		return 0, fmt.Errorf("probability %v out of [0, 1)", p)
	}
	return p, nil
}
