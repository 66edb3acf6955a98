package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of a Prometheus text exposition: sample name with
// its label set exactly as printed (`fexiot_mat_dispatch_total{mode="serial"}`,
// histogram `_bucket{le=…}`, `_sum` and `_count` lines included) → value.
type scrape map[string]float64

// parseScrape reads the text format the program's /metrics serves. Comment
// lines are skipped; a sample line is the series (name plus optional
// {labels}) and its value, separated by the last space, because label
// values may themselves contain spaces.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("scrape: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: bad value in %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// scrapeURL fetches and parses a /metrics endpoint.
func scrapeURL(c *http.Client, url string) (scrape, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: %s answered %s", url, resp.Status)
	}
	return parseScrape(resp.Body)
}

// diff returns after − before for every series of after (a series absent
// before counts from 0). Meaningful for counters and for histogram _sum,
// _count and _bucket lines; gauges diff to their change.
func (after scrape) diff(before scrape) scrape {
	out := scrape{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the values of every series whose name (the part before any
// label set) equals name — all label combinations of one family.
func (s scrape) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		base := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base = k[:i]
		}
		if base == name {
			t += v
		}
	}
	return t
}

// ratio is a ÷ (a + b), 0 when both are 0 — hits over hits-plus-misses.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
