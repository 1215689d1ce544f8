package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"

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
//	parity-flip at 0s..30s count 8
//	crash every exp 3s
//	net loss 0.05 dup 0.01 jitter 200us seed 410
//	storage-decay transient 0.08 torn 0.05 corrupt 0.05 die-after 30 seed 7 store 1
//
// Every line is "<kind> at <from>..<to>" followed by optional key/value
// pairs (jitter <dur>, count <n> with n >= 1, group <name>, drop <p>,
// slow <x>, rate <p>, phase <name>, domain <name>), with three whole-run
// exceptions that carry no window: "crash every exp <mean>", the
// supervisor's Poisson failure clock; "net" followed by its pairs
// (loss <p>, dup <p>, jitter <dur>, seed <n> with n >= 1), the
// interconnect's steady fault model; and "storage-decay" followed by
// its pairs (transient <p>, torn <p>, corrupt <p> with p in [0, 1],
// die-after <n> with n >= 1, seed <n> with any n, store <i>), one
// wrapped store's per-operation decay — store i is the i-th store the
// driver wraps (default 0), and timed storage lines always strike
// store 0. A parity-flip's window holds the
// instants a line's parity is placed; each count flips one line's. An
// option a line omits takes its kind's default (partition drop 0.85;
// brownout drop 0.2 and slow 2; storage-brownout rate 0.5), and a
// written zero is zero: "brownout at 0s..1h slow 50 drop 0" slows the
// fabric and loses nothing, and "slow 0" does not slow it.
// Durations use Go syntax ("1.5s", "300ms") and denote
// virtual time. ParseSchedule returns a typed error naming the offending
// line for any malformed input; it never panics, however hostile the
// bytes (FuzzParseSchedule holds it to that).

// ParseSchedule parses the schedule language and validates the result.
func ParseSchedule(text string) (*Schedule, error) {
	s := Schedule{Specs: make([]Spec, 0, strings.Count(text, "\n")+1)}
	var buf [16]string
	for ln := 1; text != ""; ln++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := buf[:0] // strings.Fields(line), without its allocation
		for rest := strings.TrimLeftFunc(line, unicode.IsSpace); rest != ""; rest = strings.TrimLeftFunc(rest, unicode.IsSpace) {
			end := strings.IndexFunc(rest, unicode.IsSpace)
			if end < 0 {
				end = len(rest)
			}
			fields, rest = append(fields, rest[:end]), rest[end:]
		}
		if len(fields) == 0 {
			continue
		}
		sp, err := parseSpec(fields)
		if err != nil {
			return nil, fmt.Errorf("chaos: line %d: %w", ln, err)
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
	k := slices.Index(kindNames[:], fields[0])
	if k < 0 {
		return Spec{}, fmt.Errorf("unknown fault kind %q", fields[0])
	}
	// The kind's defaults come first, so a written zero overwrites them.
	sp := kindDefaults[k]
	sp.Kind = Kind(k)
	var rest []string
	var err error
	switch {
	case sp.Kind == Net || sp.Kind == StorageDecay:
		rest = fields[1:]
	case sp.Kind == Crash && len(fields) > 1 && fields[1] == "every":
		sp.Kind = PoissonCrash
		if len(fields) < 4 || fields[2] != "exp" {
			return sp, fmt.Errorf("crash every: want %q followed by a mean, got %q", "exp", strings.Join(fields[2:], " "))
		}
		if sp.Mean, err = parseDur(fields[3]); err != nil {
			return sp, fmt.Errorf("crash every exp: %w", err)
		}
		rest = fields[4:]
	default:
		if len(fields) < 3 || fields[1] != "at" {
			return sp, fmt.Errorf("%s: want %q followed by a window, got %q", fields[0], "at", strings.Join(fields[1:], " "))
		}
		if sp.From, sp.To, err = parseWindow(fields[2]); err != nil {
			return sp, fmt.Errorf("%s: %w", fields[0], err)
		}
		rest = fields[3:]
	}
	if len(rest)%2 != 0 {
		return sp, fmt.Errorf("%s: dangling option %q (options are key/value pairs)", fields[0], rest[len(rest)-1])
	}
	for i := 0; i < len(rest); i += 2 {
		key, val := rest[i], rest[i+1]
		switch key {
		case "jitter":
			sp.Jitter, err = parseDur(val)
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
		case "drop", "loss":
			sp.Drop, err = parseProb(val, false)
		case "dup":
			sp.Dup, err = parseProb(val, false)
		case "seed":
			// As with count, only the struct's zero value means "derive
			// it" — except on a decay line, whose stream seed 0 names.
			if sp.Seed, err = strconv.ParseUint(val, 10, 64); err != nil || sp.Seed == 0 && sp.Kind != StorageDecay {
				return sp, fmt.Errorf("seed %q: want an integer >= 1", val)
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
			sp.Rate, err = parseProb(val, false)
		case "transient":
			sp.Transient, err = parseProb(val, true)
		case "torn":
			sp.Torn, err = parseProb(val, true)
		case "corrupt":
			sp.Corrupt, err = parseProb(val, true)
		case "die-after":
			// As with count, a written die-after is at least one operation.
			if sp.DieAfter, err = strconv.Atoi(val); err != nil || sp.DieAfter < 1 {
				return sp, fmt.Errorf("die-after %q: want an integer >= 1", val)
			}
		case "store":
			if sp.Store, err = strconv.Atoi(val); err != nil || sp.Store < 0 {
				return sp, fmt.Errorf("store %q: want an integer >= 0", val)
			}
		case "phase":
			sp.Phase = val
		case "domain":
			sp.Domain = val
		default:
			return sp, fmt.Errorf("%s: unknown option %q", fields[0], key)
		}
		if err != nil { // a value lexer refused val
			return sp, fmt.Errorf("%s: %w", key, err)
		}
	}
	return sp, nil
}

// kindDefaults holds each kind's option defaults: what a line that
// omits the option gets.
var kindDefaults = [kindCount]Spec{
	Partition:       {Drop: 0.85},
	Brownout:        {Drop: 0.2, Slow: 2},
	StorageBrownout: {Rate: 0.5},
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

// parseProb parses a probability literal, requiring [0, 1), or [0, 1]
// when closed.
func parseProb(s string, closed bool) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("probability %q: %w", s, err)
	}
	if !isUnit(p) || p == 1 && !closed {
		hi := ")"
		if closed {
			hi = "]"
		}
		return 0, fmt.Errorf("probability %v out of [0, 1%s", p, hi)
	}
	return p, nil
}
