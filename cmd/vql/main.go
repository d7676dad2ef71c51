// Command vql is the synthesizer's interactive utility. It has two modes:
//
// Query mode runs a VQL query against a saved benchmark store, answering
// equality predicates from secondary indexes built over the loaded
// entries when it can:
//
//	vql -store ./store -query "SELECT hardness, chart, count(*) FROM entries WHERE db = 'flight_0' GROUP BY 1, 2 ORDER BY 3 DESC"
//	vql -store ./store -query "..." -json      # machine-readable result
//	vql -store ./store -query "..." -explain   # print the plan, skip execution
//
// Demo mode (the original tool) parses an SQL query against a generated
// demo database, synthesizes the candidate visualizations, shows which
// survive the DeepEye filter, and renders a chosen candidate:
//
//	vql -sql "SELECT origin, price FROM flight" -render vega -pick 0
//	vql -list                      # show the demo schema
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"nvbench/internal/core"
	"nvbench/internal/dataset"
	"nvbench/internal/nledit"
	"nvbench/internal/render"
	"nvbench/internal/spider"
	"nvbench/internal/sqlparser"
	"nvbench/internal/store"
	"nvbench/internal/vql"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vql: ")
	var (
		storeDir = flag.String("store", "", "benchmark store directory (query mode)")
		query    = flag.String("query", "", "VQL query to run against the store")
		asJSON   = flag.Bool("json", false, "print the query result as JSON")
		explain  = flag.Bool("explain", false, "print the query plan instead of executing")
		sql      = flag.String("sql", "", "SQL query to synthesize visualizations from")
		nl       = flag.String("nl", "", "the NL question of the SQL query (for NL variant synthesis)")
		seed     = flag.Int64("seed", 1, "demo database seed")
		db       = flag.Int("db", 0, "demo database index")
		list     = flag.Bool("list", false, "print the demo database schema and exit")
		renderT  = flag.String("render", "", "render the picked candidate: vega | echarts")
		pick     = flag.Int("pick", 0, "candidate index to render")
	)
	flag.Parse()

	if *query != "" {
		if *storeDir == "" {
			log.Fatal("-query needs -store DIR")
		}
		if err := runQuery(*storeDir, *query, *asJSON, *explain); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Demo mode generates exactly the one database it is asked about.
	database, err := spider.GenerateDatabase(spider.Config{Seed: *seed, MaxRows: 500}, *db)
	if err != nil {
		log.Fatal(err)
	}

	if *list || *sql == "" {
		printSchema(database)
		if *sql == "" {
			fmt.Println("\npass -sql \"SELECT ...\" to synthesize visualizations, or -store DIR -query \"SELECT ...\" to query a store")
		}
		return
	}

	q, err := sqlparser.TryParse(*sql, database)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	fmt.Printf("sql tree:\n%s\n", q.Pretty())

	synth := core.New()
	kept, rejected, err := synth.Synthesize(database, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %d good visualizations (%d rejected):\n", len(kept), len(rejected))
	editor := nledit.New(*seed)
	for i, v := range kept {
		fmt.Printf("  [%d] %-10s %s (%s)\n", i, v.Query.Visualize, v.Query, v.Hardness)
		if *nl != "" {
			for _, variant := range editor.Variants(*nl, v.Query, v.Edit) {
				fmt.Printf("        nl: %s\n", variant.Text)
			}
		}
	}
	if len(rejected) > 0 {
		fmt.Println("rejected:")
		for _, r := range rejected {
			fmt.Printf("  - %s: %s\n", r.Reason, r.Query)
		}
	}

	if *renderT != "" && len(kept) > 0 {
		idx := *pick
		if idx < 0 || idx >= len(kept) {
			log.Fatalf("pick %d out of range [0,%d)", idx, len(kept))
		}
		var out []byte
		switch *renderT {
		case "vega":
			out, err = render.VegaLite(database, kept[idx].Query)
		case "echarts":
			out, err = render.ECharts(database, kept[idx].Query)
		default:
			log.Fatalf("unknown renderer %q", *renderT)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if _, err := os.Stdout.Write(out); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}

// runQuery loads the store, feeds the engine the loaded benchmark's
// secondary indexes, and answers one VQL query.
func runQuery(dir, q string, asJSON, explain bool) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	b, m, err := st.Load()
	if err != nil {
		return err
	}
	idx, err := st.LoadIndexes()
	if err != nil {
		return err
	}
	vidx := make(map[string]vql.Index, len(idx))
	for f, ix := range idx {
		vidx[f] = ix
	}
	eng := vql.NewEngine(b)
	if err := eng.SetIndexes(m.EntryHashes(), vidx); err != nil {
		return err
	}

	if explain {
		plan, err := eng.PlanText(q)
		if err != nil {
			return err
		}
		fmt.Println(plan)
		return nil
	}
	res, err := eng.Query(q)
	if err != nil {
		return err
	}
	if asJSON {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	printTable(res)
	return nil
}

// printTable renders a result as an aligned text table with a plan
// footer.
func printTable(res *vql.Result) {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.Text()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cols)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(res.Columns)
	rule := make([]string, len(res.Columns))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	writeRow(rule)
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Print(sb.String())
	fmt.Printf("(%d rows, scanned %d)\n%s\n", res.RowCount, res.Scanned, res.Plan)
}

func printSchema(db *dataset.Database) {
	fmt.Printf("database %s (domain %s):\n", db.Name, db.Domain)
	for _, t := range db.Tables {
		fmt.Printf("  table %s (%d rows):", t.Name, len(t.Rows))
		for _, c := range t.Columns {
			fmt.Printf(" %s:%s", c.Name, c.Type)
		}
		fmt.Println()
	}
	for _, fk := range db.ForeignKeys {
		fmt.Printf("  fk %s.%s -> %s.%s\n", fk.FromTable, fk.FromColumn, fk.ToTable, fk.ToColumn)
	}
}
