package op2ca

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designSection is what a reference into one numbered section of DESIGN.md
// can name: the numbered items at the top of its body ("§5b.3") and its bold
// run-in headings ("§5d \"One window\"").
type designSection struct {
	items map[string]bool
	bold  []string
	body  []string
}

var (
	designHeading = regexp.MustCompile(`^#{2,4} (\d+[a-z]?)\. `)
	numberedItem  = regexp.MustCompile(`^(\d+)\. `)
	boldRun       = regexp.MustCompile(`\*\*([^*]+)\*\*`)
)

// readDesign splits DESIGN.md at its numbered headings ("## 3.", "### 5d.");
// a section's body runs to the next numbered heading of any level.
func readDesign(t *testing.T) map[string]*designSection {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]*designSection{}
	var cur *designSection
	for _, line := range strings.Split(string(b), "\n") {
		if m := designHeading.FindStringSubmatch(line); m != nil {
			cur = &designSection{items: map[string]bool{}}
			sections[m[1]] = cur
			continue
		}
		if cur == nil {
			continue
		}
		cur.body = append(cur.body, line)
		if m := numberedItem.FindStringSubmatch(line); m != nil {
			cur.items[m[1]] = true
		}
		for _, m := range boldRun.FindAllStringSubmatch(line, -1) {
			cur.bold = append(cur.bold, m[1])
		}
	}
	return sections
}

// TestDesignInventoryListsEveryPackage holds DESIGN §3 to the tree: every
// package of the module but the examples has a row, and every row names a
// package that exists.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	inventory := readDesign(t)["3"]
	if inventory == nil {
		t.Fatal("DESIGN.md has no section 3")
	}
	rowPackage := regexp.MustCompile("^\\| `([^`]+)`")
	rows := map[string]bool{}
	for _, line := range inventory.body {
		if m := rowPackage.FindStringSubmatch(line); m != nil {
			dir := m[1]
			if dir == "op2ca" {
				dir = "."
			}
			rows[dir] = true
		}
	}

	packages := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") {
			packages[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for pkg := range packages {
		if !rows[pkg] && !strings.HasPrefix(pkg, "examples/") {
			t.Errorf("package %s has no row in DESIGN.md §3", pkg)
		}
	}
	for row := range rows {
		if !packages[row] {
			t.Errorf("DESIGN.md §3 lists %s, which is not a package", row)
		}
	}
}

// TestDesignReferencesResolve holds every reference into DESIGN.md — "§5k",
// "DESIGN 5b.3", "DESIGN.md 5", "§5d \"One window\"" — from the documents
// that cite it and from Go comments to what it names: a numbered heading,
// the k-th numbered item of that section for a ".k" suffix, and a bold run-in
// heading of that section for a quoted title. CHANGES.md is history and is
// not checked.
func TestDesignReferencesResolve(t *testing.T) {
	sections := readDesign(t)
	ref := regexp.MustCompile(`(?:§ ?|\bDESIGN(?:\.md)? +§?)(\d+[a-z]?)(?:\.(\d+))?(?: +"([^"\n]+)")?`)

	files := []string{"README.md", "ROADMAP.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for _, file := range files {
		b, err := os.ReadFile(file)
		if os.IsNotExist(err) && !strings.HasSuffix(file, ".go") {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(b), -1) {
			checked++
			sec := sections[m[1]]
			switch {
			case sec == nil:
				t.Errorf("%s: %q names no DESIGN.md section", file, m[0])
			case m[2] != "" && !sec.items[m[2]]:
				t.Errorf("%s: %q: DESIGN.md §%s has no item %s", file, m[0], m[1], m[2])
			case m[3] != "" && !slices.ContainsFunc(sec.bold, func(b string) bool { return strings.HasPrefix(b, m[3]) }):
				t.Errorf("%s: %q: DESIGN.md §%s has no bold heading %q", file, m[0], m[1], m[3])
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no reference into DESIGN.md to check")
	}
}
