package main

import (
	"fmt"
	"time"
)

// ledgerRow is one layer's self time on the measured path.
type ledgerRow struct {
	layer string
	d     time.Duration
}

// printLedger prints a per-layer ledger against an end-to-end total:
// each layer's time and share, then the unexplained remainder (the
// total minus every attributed layer), so the rows always reconcile
// with the total. It returns the remainder's share of the total.
func printLedger(title string, total time.Duration, rows []ledgerRow) float64 {
	fmt.Printf("ledger %s (total %.3f ms)\n", title, ms(total))
	var sum time.Duration
	for _, r := range rows {
		sum += r.d
		fmt.Printf("  %-28s %10.3f ms %6.1f%%\n", r.layer, ms(r.d), share(r.d, total)*100)
	}
	rest := total - sum
	fmt.Printf("  %-28s %10.3f ms %6.1f%%\n", "unexplained", ms(rest), share(rest, total)*100)
	fmt.Printf("  %-28s %10.3f ms\n", "total", ms(total))
	return share(rest, total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func share(part, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(part) / float64(total)
}
