// Command docscheck keeps the documentation honest. It fails (exit 1)
// when the code and the prose disagree:
//
//   - every flag registered in cmd/*/main.go must be mentioned, as
//     -flagname, somewhere in README.md or docs/*.md;
//   - and the reverse: every command line the documents show, in a code
//     span or a fenced block, for one of the binaries may use only
//     flags that binary registers (a deleted flag cannot live on in the
//     prose);
//   - every metric registered through the obs registry must appear as
//     a `backticked` name in docs/METRICS.md (the same contract
//     internal/obs's contract test enforces, rechecked here so the CI
//     docs job stands alone);
//   - every dgfctl verb must appear in README.md's CLI table (the
//     table is `dgfctl help -markdown` verbatim).
//
// CI runs it from the repository root in the docs job:
//
//	go run ./internal/infra/docscheck
//	go run ./internal/infra/docscheck -root /path/to/repo
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	flagRe   = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\(\s*"([A-Za-z][A-Za-z0-9_.-]*)"`)
	metricRe = regexp.MustCompile(`\.(?:Counter|Gauge|Histogram|HistogramBuckets)\(\s*"([a-z][a-z0-9_]*)"`)
	verbRe   = regexp.MustCompile(`(?m)^\s*name:\s*"([a-z]+)",$`)
	// codeRe matches a fenced block or an inline code span.
	codeRe = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	// shownFlagRe matches one flag inside a command-line token, which may
	// list several ("-store/-repl") or carry a value ("-metrics=false").
	shownFlagRe = regexp.MustCompile(`(?:^|/)--?([A-Za-z][A-Za-z0-9_.-]*)`)
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	problems, err := check(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "docscheck: %s\n", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// check returns one message per code/documentation mismatch.
func check(root string) ([]string, error) {
	corpus, err := docCorpus(root)
	if err != nil {
		return nil, err
	}
	var problems []string

	flags, err := cmdFlags(root)
	if err != nil {
		return nil, err
	}
	for _, f := range flags {
		if !mentionsFlag(corpus, f.name) {
			problems = append(problems,
				fmt.Sprintf("%s registers -%s but neither README.md nor docs/*.md mentions it", f.binary, f.name))
		}
	}

	ctl, err := os.ReadFile(filepath.Join(root, "cmd", "dgfctl", "main.go"))
	if err != nil {
		return nil, err
	}
	verbs := verbRe.FindAllStringSubmatch(string(ctl), -1)
	problems = append(problems, staleFlags(corpus, flags, verbs)...)

	metricsDoc, err := os.ReadFile(filepath.Join(root, "docs", "METRICS.md"))
	if err != nil {
		return nil, err
	}
	metrics, err := sourceMetrics(root)
	if err != nil {
		return nil, err
	}
	for _, m := range metrics {
		if !strings.Contains(string(metricsDoc), "`"+m+"`") {
			problems = append(problems,
				fmt.Sprintf("metric %s is registered in code but missing from docs/METRICS.md", m))
		}
	}

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, err
	}
	for _, m := range verbs {
		// The README table rows open with "| `<verb>" because each
		// synopsis starts with its verb name.
		if !strings.Contains(string(readme), "| `"+m[1]) {
			problems = append(problems,
				fmt.Sprintf("dgfctl verb %q is missing from README.md's CLI table (regenerate it with `dgfctl help -markdown`)", m[1]))
		}
	}

	sort.Strings(problems)
	return problems, nil
}

type cmdFlag struct {
	binary string // e.g. "cmd/matrixd"
	name   string // e.g. "store-dir"
}

// cmdFlags scans every cmd/*/main.go for flag registrations.
func cmdFlags(root string) ([]cmdFlag, error) {
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		return nil, err
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("no cmd/*/main.go under %s", root)
	}
	var flags []cmdFlag
	for _, path := range mains {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		binary := filepath.ToSlash(filepath.Join("cmd", filepath.Base(filepath.Dir(path))))
		for _, m := range flagRe.FindAllStringSubmatch(string(data), -1) {
			flags = append(flags, cmdFlag{binary: binary, name: m[1]})
		}
	}
	return flags, nil
}

// staleFlags walks every command line the corpus shows in code (a code
// span or a line of a fenced block) and reports each flag handed to one
// of the repository's binaries that the binary does not register. A
// dgfctl line is read up to its verb: what follows belongs to the verb's
// own flag set, which cmdFlags does not enumerate.
func staleFlags(corpus string, flags []cmdFlag, verbs [][]string) []string {
	registered := map[string]map[string]bool{} // binary name -> flag -> true
	for _, f := range flags {
		bin := path.Base(f.binary)
		if registered[bin] == nil {
			registered[bin] = map[string]bool{}
		}
		registered[bin][f.name] = true
	}
	isVerb := map[string]bool{}
	for _, m := range verbs {
		isVerb[m[1]] = true
	}
	seen := map[string]bool{}
	var problems []string
	for _, code := range codeRe.FindAllString(corpus, -1) {
		for _, line := range strings.Split(strings.Trim(code, "`"), "\n") {
			toks := strings.Fields(line)
			for i, tok := range toks {
				bin := path.Base(tok)
				if registered[bin] == nil {
					continue
				}
				for _, name := range shownFlags(toks[i+1:], bin == "dgfctl", isVerb) {
					if key := bin + " -" + name; !registered[bin][name] && !seen[key] {
						seen[key] = true
						problems = append(problems,
							fmt.Sprintf("the documents show `%s`, but cmd/%s registers no such flag", key, bin))
					}
				}
			}
		}
	}
	return problems
}

// shownFlags returns the flag names among a command's arguments, up to
// the end of the command (a pipe, a redirect, a comment) or, when
// untilVerb is set, up to its verb.
func shownFlags(args []string, untilVerb bool, isVerb map[string]bool) []string {
	var names []string
	for _, arg := range args {
		if arg == "|" || arg == "||" || arg == "&&" || arg == ";" ||
			strings.HasPrefix(arg, "#") || strings.HasPrefix(arg, ">") || (untilVerb && isVerb[arg]) {
			break
		}
		if !strings.HasPrefix(arg, "-") {
			continue
		}
		for _, m := range shownFlagRe.FindAllStringSubmatch(arg, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// sourceMetrics scans non-test Go sources for obs metric registrations,
// mirroring internal/obs's contract test.
func sourceMetrics(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "docs":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricRe.FindAllStringSubmatch(string(data), -1) {
			seen[m[1]] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// docCorpus concatenates README.md and every docs/*.md.
func docCorpus(root string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return "", err
	}
	paths = append(paths, filepath.Join(root, "README.md"))
	var b strings.Builder
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// mentionsFlag reports whether the corpus contains -name as a distinct
// token: preceded by start-of-text or a non-word character, and not
// running into a longer flag name (so -o does not match -open).
func mentionsFlag(corpus, name string) bool {
	re := regexp.MustCompile(`(^|[^-\w])-` + regexp.QuoteMeta(name) + `($|[^-\w])`)
	return re.MatchString(corpus)
}
