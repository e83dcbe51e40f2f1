// Command census counts a checkout's settable values, the second table of
// `make loc` (ROADMAP item 3: no option, field or flag added):
//
//	go run ./scripts/census [parent-root] this-root
//
// A settable value is an exported field of an exported struct named
// *Options, *Config or *Policy, of WorkerHooks, or of core.Spec, in
// fieldTrees, or a flag that cmd/fastdnaml, cmd/fdworker or
// cmd/fastdnamld declares. Embedded fields are not counted (their own
// fields are). Test files are skipped. With two roots the table has the
// parent column and the delta. Output is markdown.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

var (
	fieldTrees = []string{"internal/comm", "internal/mlsearch", "internal/serve", "internal/core", "internal/likelihood", "cmd"}
	flagCmds   = []string{"cmd/fastdnaml", "cmd/fdworker", "cmd/fastdnamld"}
)

// flagFuncs are the flag package's declaring functions: the flag's name
// is the first argument, or the second for the *Var forms.
var flagFuncs = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1,
}

func settableStruct(tree, name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy") ||
		name == "WorkerHooks" || (tree == "internal/core" && name == "Spec")
}

// goFiles parses the non-test Go files under dir.
func goFiles(dir string) ([]*ast.File, error) {
	var files []*ast.File
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	return files, err
}

// fields counts the settable struct fields under root/tree.
func fields(root, tree string) (int, error) {
	files, err := goFiles(filepath.Join(root, tree))
	n := 0
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok || !settableStruct(tree, ts.Name.Name) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if id.IsExported() {
						n++
					}
				}
			}
			return true
		})
	}
	return n, err
}

// flags counts the distinct flag names a command declares.
func flags(root, cmd string) (int, error) {
	files, err := goFiles(filepath.Join(root, cmd))
	names := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := flagFuncs[sel.Sel.Name]
			if !ok || len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names[name] = true
				}
			}
			return true
		})
	}
	return len(names), err
}

type row struct {
	label string
	count func(root string) (int, error)
}

func main() {
	roots := os.Args[1:]
	if len(roots) < 1 || len(roots) > 2 {
		fmt.Fprintln(os.Stderr, "usage: census [parent-root] this-root")
		os.Exit(2)
	}
	var rows []row
	for _, t := range fieldTrees {
		rows = append(rows, row{"`" + t + "` fields", func(root string) (int, error) { return fields(root, t) }})
	}
	for _, c := range flagCmds {
		rows = append(rows, row{"`" + c + "` flags", func(root string) (int, error) { return flags(root, c) }})
	}

	if len(roots) == 2 {
		fmt.Println("| settable values | parent | this checkout | delta |")
		fmt.Println("|---|---:|---:|---:|")
	} else {
		fmt.Println("| settable values | count |")
		fmt.Println("|---|---:|")
	}
	totals := make([]int, len(roots))
	for _, r := range rows {
		counts := make([]int, len(roots))
		for i, root := range roots {
			c, err := r.count(root)
			if err != nil {
				fmt.Fprintln(os.Stderr, "census:", err)
				os.Exit(1)
			}
			counts[i] = c
			totals[i] += c
		}
		printRow(r.label, counts)
	}
	printRow("**total**", totals)
}

func printRow(label string, counts []int) {
	if len(counts) == 2 {
		fmt.Printf("| %s | %d | %d | %+d |\n", label, counts[0], counts[1], counts[1]-counts[0])
		return
	}
	fmt.Printf("| %s | %d |\n", label, counts[0])
}
