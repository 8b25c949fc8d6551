package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// ContentType is the HTTP Content-Type of WritePrometheus output — the
// Prometheus text exposition format, version 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes every family in the registry in the
// Prometheus text exposition format (0.0.4): one # HELP and # TYPE
// header per family, then one sample line per child, with histograms
// expanded into cumulative le buckets plus _sum and _count. Families
// appear in registration order and children in creation order, so
// output is deterministic. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		children := make([]*child, len(f.order))
		for i, k := range f.order {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue
		}
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, ch := range children {
			switch f.kind {
			case KindCounter:
				writeSample(bw, f.name, f.labels, ch.values, "", "", strconv.FormatUint(ch.c.Value(), 10))
			case KindGauge:
				writeSample(bw, f.name, f.labels, ch.values, "", "", formatFloat(ch.g.Value()))
			case KindHistogram:
				b := ch.h.Buckets()
				var cum uint64
				for i, bound := range b.Bounds {
					cum += b.Counts[i]
					writeSample(bw, f.name+"_bucket", f.labels, ch.values,
						"le", formatFloat(bound), strconv.FormatUint(cum, 10))
				}
				writeSample(bw, f.name+"_bucket", f.labels, ch.values,
					"le", "+Inf", strconv.FormatUint(b.Count, 10))
				writeSample(bw, f.name+"_sum", f.labels, ch.values, "", "", formatFloat(b.Sum))
				writeSample(bw, f.name+"_count", f.labels, ch.values, "", "", strconv.FormatUint(b.Count, 10))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one sample line, appending the optional extra
// label (used for histogram le) after the family labels.
func writeSample(bw *bufio.Writer, name string, labels, values []string, extraLabel, extraValue, sample string) {
	bw.WriteString(name)
	if len(labels) > 0 || extraLabel != "" {
		bw.WriteByte('{')
		sep := false
		for i, l := range labels {
			if sep {
				bw.WriteByte(',')
			}
			sep = true
			bw.WriteString(l)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(values[i]))
			bw.WriteByte('"')
		}
		if extraLabel != "" {
			if sep {
				bw.WriteByte(',')
			}
			bw.WriteString(extraLabel)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(extraValue))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(sample)
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
