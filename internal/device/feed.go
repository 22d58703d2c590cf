package device

import (
	"context"
	"fmt"

	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// GetItemsProto returns the passive prototype used by RSS wrapper services:
// getItems(since INTEGER) : (itemId INTEGER, title STRING, published INTEGER).
// The paper wraps RSS feeds as services that are periodically polled and
// turned into streams (Section 5.2); this prototype is that wrapper's
// pull interface, which the PEMS feed poller converts into an XD-Relation.
func GetItemsProto() *schema.Prototype {
	return schema.MustPrototype("getItems",
		schema.MustRel(schema.Attribute{Name: "since", Type: value.Int}),
		schema.MustRel(
			schema.Attribute{Name: "itemId", Type: value.Int},
			schema.Attribute{Name: "title", Type: value.String},
			schema.Attribute{Name: "published", Type: value.Int}),
		false)
}

// Item is one feed entry.
type Item struct {
	ID        int64
	Title     string
	Published service.Instant
}

// Feed simulates an RSS feed (the paper polled Le Monde, Le Figaro and CNN
// Europe). Items appear deterministically: the feed publishes one item
// every period instants, cycling through its headline templates; a fraction
// of headlines mention each configured topic so keyword queries have
// predictable selectivity.
type Feed struct {
	ref    string
	name   string
	period service.Instant
	topics []string
}

// NewFeed builds a feed service publishing one item every period instants.
func NewFeed(ref, name string, period service.Instant, topics []string) *Feed {
	if period < 1 {
		period = 1
	}
	return &Feed{ref: ref, name: name, period: period, topics: append([]string(nil), topics...)}
}

// Ref implements service.Service.
func (f *Feed) Ref() string { return f.ref }

// PrototypeNames implements service.Service.
func (f *Feed) PrototypeNames() []string { return []string{"getItems"} }

// Implements implements service.Service.
func (f *Feed) Implements(p string) bool { return p == "getItems" }

// itemAt returns the item with the given sequence number.
func (f *Feed) itemAt(seq int64) Item {
	published := service.Instant(seq) * f.period
	title := fmt.Sprintf("%s headline #%d", f.name, seq)
	if len(f.topics) > 0 {
		// Every third item mentions a topic, cycling through them.
		if seq%3 == 0 {
			title = fmt.Sprintf("%s: news about %s (#%d)", f.name, f.topics[(seq/3)%int64(len(f.topics))], seq)
		}
	}
	return Item{ID: seq, Title: title, Published: published}
}

// ItemsSince returns the items published strictly after `since` and up to
// (including) instant `at` — deterministic in (ref, since, at).
func (f *Feed) ItemsSince(since, at service.Instant) []Item {
	if at < 0 {
		return nil
	}
	firstSeq := int64(0)
	if since >= 0 {
		firstSeq = int64(since/f.period) + 1
	}
	lastSeq := int64(at / f.period)
	var out []Item
	for seq := firstSeq; seq <= lastSeq; seq++ {
		out = append(out, f.itemAt(seq))
	}
	return out
}

// Invoke implements service.Service.
func (f *Feed) Invoke(_ context.Context, proto string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	if proto != "getItems" {
		return nil, fmt.Errorf("%w: %s on %s", service.ErrNotImplemented, proto, f.ref)
	}
	since := service.Instant(input[0].Int())
	items := f.ItemsSince(since, at)
	rows := make([]value.Tuple, len(items))
	for i, it := range items {
		rows[i] = value.Tuple{
			value.NewInt(it.ID),
			value.NewString(it.Title),
			value.NewInt(int64(it.Published)),
		}
	}
	return rows, nil
}
