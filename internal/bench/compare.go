package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Thresholds maps table names to the maximum relative delta tolerated for
// numeric cells of that table. The zero value tolerates only float-format
// jitter (defaultTol); ParseThresholds builds one from a spec like
// "default=2%,table2=5%".
type Thresholds struct {
	Default float64
	Tables  map[string]float64
}

// defaultTol absorbs formatting noise (a re-rendered float) without
// tolerating any real perf movement. Deterministic runs reproduce cells
// exactly, so this is effectively "equal".
const defaultTol = 1e-6

// ParseThresholds parses "name=val,name=val" where val is either a
// fraction ("0.05") or a percentage ("5%"), and the name "default" sets
// the fallback for tables not named. An empty spec yields the strict
// defaults.
func ParseThresholds(spec string) (Thresholds, error) {
	th := Thresholds{Default: defaultTol, Tables: map[string]float64{}}
	if strings.TrimSpace(spec) == "" {
		return th, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return th, fmt.Errorf("threshold %q: want name=value", part)
		}
		name = strings.TrimSpace(name)
		val = strings.TrimSpace(val)
		pct := strings.HasSuffix(val, "%")
		f, err := strconv.ParseFloat(strings.TrimSuffix(val, "%"), 64)
		// Not f < 0: NaN compares false there, and no delta exceeds a NaN tolerance.
		if err != nil || !(f >= 0) || math.IsInf(f, 1) {
			return th, fmt.Errorf("threshold %q: bad value %q (want a finite, non-negative fraction or percentage)", part, val)
		}
		if pct {
			f /= 100
		}
		if name == "default" {
			th.Default = f
		} else {
			th.Tables[name] = f
		}
	}
	return th, nil
}

// For returns the tolerance for a named table.
func (t Thresholds) For(name string) float64 {
	if v, ok := t.Tables[name]; ok {
		return v
	}
	if t.Default == 0 && t.Tables == nil {
		return defaultTol
	}
	return t.Default
}

// Regression is one comparison failure: a numeric cell moved past its
// table's threshold, or a structural/exact field changed.
type Regression struct {
	Table    string  // table name, or "config" / "checksums" / "profiles"
	Where    string  // human-readable location within the table
	Old, New string  // the two values
	Delta    float64 // relative delta for numeric mismatches, 0 otherwise
}

func (r Regression) String() string {
	if r.Delta != 0 {
		return fmt.Sprintf("%s %s: %s -> %s (%+.2f%%)", r.Table, r.Where, r.Old, r.New, r.Delta*100)
	}
	return fmt.Sprintf("%s %s: %s -> %s", r.Table, r.Where, r.Old, r.New)
}

// CompareReport is the outcome of CompareSnapshots: every regression found,
// how many values were checked, and anything skipped (tables or keys
// present on only one side — reported, not failed, so snapshots taken with
// different experiment sets still compare their overlap).
type CompareReport struct {
	Regressions []Regression
	Compared    int
	Skipped     []string
}

// OK reports whether the comparison found no regressions.
func (r *CompareReport) OK() bool { return len(r.Regressions) == 0 }

func (r *CompareReport) String() string {
	var sb strings.Builder
	for _, reg := range r.Regressions {
		fmt.Fprintf(&sb, "REGRESSION %s\n", reg)
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&sb, "skipped: %s\n", s)
	}
	if r.OK() {
		fmt.Fprintf(&sb, "OK: %d values compared, no regressions\n", r.Compared)
	} else {
		fmt.Fprintf(&sb, "FAIL: %d regressions over %d values compared\n", len(r.Regressions), r.Compared)
	}
	return sb.String()
}

// numericCell parses a table cell as a number, tolerating the suffixes the
// renderers use ("1.23x" speed-ups, "4.5%" gains).
func numericCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// relDelta is (new-old)/|old|, with an absolute fallback when old == 0.
func relDelta(oldV, newV float64) float64 {
	if oldV == 0 {
		return newV - oldV
	}
	return (newV - oldV) / math.Abs(oldV)
}

// CompareSnapshots diffs two result snapshots. Configuration fields,
// checksums and non-numeric cells must match exactly; numeric table cells
// may move within their table's threshold; the wall-clock seconds field is
// ignored. Tables are matched by name, rows by index, profiles by run
// label.
func CompareSnapshots(oldS, newS *Snapshot, th Thresholds) *CompareReport {
	r := &CompareReport{}
	exact := func(table, where, a, b string) {
		r.Compared++
		if a != b {
			r.Regressions = append(r.Regressions, Regression{Table: table, Where: where, Old: a, New: b})
		}
	}
	numeric := func(table, where string, a, b float64) {
		r.Compared++
		if d := relDelta(a, b); math.Abs(d) > th.For(table) {
			r.Regressions = append(r.Regressions, Regression{
				Table: table, Where: where,
				Old: strconv.FormatFloat(a, 'g', -1, 64), New: strconv.FormatFloat(b, 'g', -1, 64),
				Delta: d,
			})
		}
	}

	exact("config", "nodes8m", strconv.Itoa(oldS.Nodes8M), strconv.Itoa(newS.Nodes8M))
	exact("config", "nodes24m", strconv.Itoa(oldS.Nodes24M), strconv.Itoa(newS.Nodes24M))
	exact("config", "rankscale", fmt.Sprint(oldS.RankScale), fmt.Sprint(newS.RankScale))
	exact("config", "iters", strconv.Itoa(oldS.Iters), strconv.Itoa(newS.Iters))
	exact("config", "fault_spec", oldS.FaultSpec, newS.FaultSpec)

	newTables := map[string]*Result{}
	for i := range newS.Results {
		newTables[newS.Results[i].Name] = &newS.Results[i]
	}
	seen := map[string]bool{}
	for i := range oldS.Results {
		ot := &oldS.Results[i]
		nt, ok := newTables[ot.Name]
		if !ok {
			r.Regressions = append(r.Regressions, Regression{
				Table: ot.Name, Where: "table", Old: "present", New: "missing",
			})
			continue
		}
		seen[ot.Name] = true
		compareTable(r, ot, nt, th)
	}
	for _, nt := range newS.Results {
		if !seen[nt.Name] {
			r.Skipped = append(r.Skipped, fmt.Sprintf("table %s only in new snapshot", nt.Name))
		}
	}

	compareStringMaps(r, "checksums", oldS.Checksums, newS.Checksums, exact)
	compareProfiles(r, oldS.Profiles, newS.Profiles, th, exact, numeric)

	sort.Strings(r.Skipped)
	return r
}

func compareTable(r *CompareReport, ot, nt *Result, th Thresholds) {
	tol := th.For(ot.Name)
	if oh, nh := strings.Join(ot.Header, "|"), strings.Join(nt.Header, "|"); oh != nh {
		r.Regressions = append(r.Regressions, Regression{Table: ot.Name, Where: "header", Old: oh, New: nh})
		return
	}
	if len(ot.Rows) != len(nt.Rows) {
		r.Regressions = append(r.Regressions, Regression{
			Table: ot.Name, Where: "rows",
			Old: strconv.Itoa(len(ot.Rows)), New: strconv.Itoa(len(nt.Rows)),
		})
		return
	}
	for ri := range ot.Rows {
		or, nr := ot.Rows[ri], nt.Rows[ri]
		if len(or) != len(nr) {
			r.Regressions = append(r.Regressions, Regression{
				Table: ot.Name, Where: fmt.Sprintf("row %d width", ri),
				Old: strconv.Itoa(len(or)), New: strconv.Itoa(len(nr)),
			})
			continue
		}
		for ci := range or {
			where := fmt.Sprintf("row %d col %d", ri, ci)
			if ci < len(ot.Header) && ot.Header[ci] != "" {
				where = fmt.Sprintf("row %d (%s) col %q", ri, or[0], ot.Header[ci])
			}
			ov, ook := numericCell(or[ci])
			nv, nok := numericCell(nr[ci])
			r.Compared++
			switch {
			case ook && nok:
				if d := relDelta(ov, nv); math.Abs(d) > tol {
					r.Regressions = append(r.Regressions, Regression{
						Table: ot.Name, Where: where, Old: or[ci], New: nr[ci], Delta: d,
					})
				}
			default:
				if or[ci] != nr[ci] {
					r.Regressions = append(r.Regressions, Regression{
						Table: ot.Name, Where: where, Old: or[ci], New: nr[ci],
					})
				}
			}
		}
	}
}

func compareStringMaps(r *CompareReport, table string, oldM, newM map[string]string, exact func(table, where, a, b string)) {
	var keys []string
	for k := range oldM {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		nv, ok := newM[k]
		if !ok {
			r.Skipped = append(r.Skipped, fmt.Sprintf("%s %s only in old snapshot", table, k))
			continue
		}
		exact(table, k, oldM[k], nv)
	}
	for k := range newM {
		if _, ok := oldM[k]; !ok {
			r.Skipped = append(r.Skipped, fmt.Sprintf("%s %s only in new snapshot", table, k))
		}
	}
}

func compareProfiles(r *CompareReport, oldP, newP []ProfileRecord, th Thresholds,
	exact func(table, where, a, b string), numeric func(table, where string, a, b float64)) {
	const table = "profiles"
	newByRun := map[string]*ProfileRecord{}
	for i := range newP {
		newByRun[newP[i].Run] = &newP[i]
	}
	seen := map[string]bool{}
	for i := range oldP {
		op := &oldP[i]
		np, ok := newByRun[op.Run]
		if !ok {
			r.Skipped = append(r.Skipped, fmt.Sprintf("profile %q only in old snapshot", op.Run))
			continue
		}
		seen[op.Run] = true
		numeric(table, op.Run+" makespan_seconds", op.Makespan, np.Makespan)
		numeric(table, op.Run+" critpath_seconds", op.CritPath, np.CritPath)
		numeric(table, op.Run+" imbalance_ratio", op.Imbalance, np.Imbalance)
		var kinds []string
		for k := range op.ByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			if nv, ok := np.ByKind[k]; ok {
				numeric(table, fmt.Sprintf("%s critpath[%s]", op.Run, k), op.ByKind[k], nv)
			} else {
				r.Skipped = append(r.Skipped, fmt.Sprintf("profile %q kind %s only in old snapshot", op.Run, k))
			}
		}
		newComm := map[string]CommRecord{}
		for _, cc := range np.Comm {
			newComm[cc.Owner] = cc
		}
		for _, oc := range op.Comm {
			nc, ok := newComm[oc.Owner]
			if !ok {
				r.Skipped = append(r.Skipped, fmt.Sprintf("profile %q comm %s only in old snapshot", op.Run, oc.Owner))
				continue
			}
			exact(table, fmt.Sprintf("%s comm[%s] msgs", op.Run, oc.Owner),
				strconv.FormatInt(oc.Msgs, 10), strconv.FormatInt(nc.Msgs, 10))
			exact(table, fmt.Sprintf("%s comm[%s] bytes", op.Run, oc.Owner),
				strconv.FormatInt(oc.Bytes, 10), strconv.FormatInt(nc.Bytes, 10))
			numeric(table, fmt.Sprintf("%s comm[%s] wait_seconds", op.Run, oc.Owner), oc.WaitSeconds, nc.WaitSeconds)
		}
	}
	for _, np := range newP {
		if !seen[np.Run] {
			r.Skipped = append(r.Skipped, fmt.Sprintf("profile %q only in new snapshot", np.Run))
		}
	}
}
