// Package chaincfg parses the communication-avoiding back-end's
// configuration file. The paper's Section 3.4: the only addition to OP2's
// code-generation flow is "a configuration file specifying the list of loops
// to be chained in the application. The file details loop names, loop count
// and maximum halo extension of loops." This package implements that file:
//
//	# comment
//	chain period maxhe=2
//	  loop negflag he=2
//	  loop limxp he=2
//	  loop periodicity he=1
//	chain vflux maxhe=1 disable
//
// A chain line opens a chain with a name, an optional maximum halo extension
// and an optional "disable" flag (the chain runs as plain OP2 loops) or
// "auto" flag (the model-driven autotuner picks the chain's policy at run
// time). Loop lines list the constituent loops in order, optionally pinning
// their halo extension, overriding Algorithm 3. Chain and loop names must
// be unique: a duplicate would silently shadow the earlier entry, so both
// are rejected at parse time.
package chaincfg

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoopCfg is one loop entry of a chain.
type LoopCfg struct {
	Name string
	// HE pins the loop's halo extension; 0 means "use Algorithm 3".
	HE int
}

// Chain is one configured loop-chain.
type Chain struct {
	Name string
	// MaxHE caps every loop's halo extension; 0 means uncapped.
	MaxHE int
	// Disabled chains execute as ordinary per-loop OP2 code.
	Disabled bool
	// Auto hands the chain's execution policy to the model-driven
	// autotuner (cluster Config.AutoTune enables it for every chain);
	// mutually exclusive with Disabled.
	Auto bool
	// MaxRetries overrides the back-end's per-message retransmission
	// budget for this chain's exchanges under fault injection; 0 means
	// "use the back-end default".
	MaxRetries int
	// Overlap delivers this chain's CA exchanges overlapped (pipelined
	// post/complete delivery, cluster.Config.Overlap); results are
	// bit-identical to bulk-synchronous execution, only virtual time moves.
	Overlap bool
	// Loops lists the constituent loops in chain order; may be empty when
	// the application demarcates chains itself.
	Loops []LoopCfg
}

// HEOverrides returns the per-loop halo-extension override slice for a chain
// of n loops, suitable for ca.Inspect: configured HE values (capped by
// MaxHE), 0 where unconstrained. A mismatch between n and the configured
// loop count is an error.
func (c *Chain) HEOverrides(n int) ([]int, error) {
	he := make([]int, n)
	if len(c.Loops) != 0 {
		if len(c.Loops) != n {
			return nil, fmt.Errorf("chaincfg: chain %q configured with %d loops, application chained %d",
				c.Name, len(c.Loops), n)
		}
		for i, l := range c.Loops {
			he[i] = l.HE
		}
	}
	if c.MaxHE > 0 {
		for i := range he {
			if he[i] == 0 || he[i] > c.MaxHE {
				he[i] = c.MaxHE
			}
		}
	}
	return he, nil
}

// Config is the parsed configuration file.
type Config struct {
	Chains map[string]*Chain
	// Order preserves declaration order for reporting.
	Order []string
}

// Get returns the configuration of the named chain, or nil.
func (c *Config) Get(name string) *Chain {
	if c == nil {
		return nil
	}
	return c.Chains[name]
}

// Parse reads a configuration file.
func Parse(r io.Reader) (*Config, error) {
	cfg := &Config{Chains: map[string]*Chain{}}
	var cur *Chain
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "chain":
			if len(fields) < 2 {
				return nil, fmt.Errorf("chaincfg: line %d: chain needs a name", lineNo)
			}
			name := fields[1]
			if _, dup := cfg.Chains[name]; dup {
				return nil, fmt.Errorf("chaincfg: line %d: duplicate chain %q", lineNo, name)
			}
			cur = &Chain{Name: name}
			for _, f := range fields[2:] {
				switch {
				case f == "disable":
					cur.Disabled = true
				case f == "auto":
					cur.Auto = true
				case f == "overlap":
					cur.Overlap = true
				case strings.HasPrefix(f, "maxhe="):
					v, err := strconv.Atoi(strings.TrimPrefix(f, "maxhe="))
					if err != nil || v < 1 {
						return nil, fmt.Errorf("chaincfg: line %d: bad maxhe %q", lineNo, f)
					}
					cur.MaxHE = v
				case strings.HasPrefix(f, "maxretries="):
					v, err := strconv.Atoi(strings.TrimPrefix(f, "maxretries="))
					if err != nil || v < 1 {
						return nil, fmt.Errorf("chaincfg: line %d: bad maxretries %q", lineNo, f)
					}
					cur.MaxRetries = v
				default:
					return nil, fmt.Errorf("chaincfg: line %d: unknown chain option %q", lineNo, f)
				}
			}
			if cur.Auto && cur.Disabled {
				return nil, fmt.Errorf("chaincfg: line %d: chain %q cannot be both auto and disable", lineNo, name)
			}
			cfg.Chains[name] = cur
			cfg.Order = append(cfg.Order, name)
		case "loop":
			if cur == nil {
				return nil, fmt.Errorf("chaincfg: line %d: loop outside a chain", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("chaincfg: line %d: loop needs a name", lineNo)
			}
			lc := LoopCfg{Name: fields[1]}
			for _, prev := range cur.Loops {
				if prev.Name == lc.Name {
					return nil, fmt.Errorf("chaincfg: line %d: duplicate loop %q in chain %q", lineNo, lc.Name, cur.Name)
				}
			}
			for _, f := range fields[2:] {
				if strings.HasPrefix(f, "he=") {
					v, err := strconv.Atoi(strings.TrimPrefix(f, "he="))
					if err != nil || v < 1 {
						return nil, fmt.Errorf("chaincfg: line %d: bad he %q", lineNo, f)
					}
					lc.HE = v
				} else {
					return nil, fmt.Errorf("chaincfg: line %d: unknown loop option %q", lineNo, f)
				}
			}
			cur.Loops = append(cur.Loops, lc)
		default:
			return nil, fmt.Errorf("chaincfg: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("chaincfg: %w", err)
	}
	return cfg, nil
}

// ParseString parses a configuration from a string.
func ParseString(s string) (*Config, error) { return Parse(strings.NewReader(s)) }

// String renders the configuration back into the file format; the result
// round-trips through Parse.
func (c *Config) String() string {
	var b strings.Builder
	for _, name := range c.Order {
		ch := c.Chains[name]
		fmt.Fprintf(&b, "chain %s", ch.Name)
		if ch.MaxHE > 0 {
			fmt.Fprintf(&b, " maxhe=%d", ch.MaxHE)
		}
		if ch.MaxRetries > 0 {
			fmt.Fprintf(&b, " maxretries=%d", ch.MaxRetries)
		}
		if ch.Overlap {
			b.WriteString(" overlap")
		}
		if ch.Disabled {
			b.WriteString(" disable")
		}
		if ch.Auto {
			b.WriteString(" auto")
		}
		b.WriteByte('\n')
		for _, l := range ch.Loops {
			fmt.Fprintf(&b, "  loop %s", l.Name)
			if l.HE > 0 {
				fmt.Fprintf(&b, " he=%d", l.HE)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
