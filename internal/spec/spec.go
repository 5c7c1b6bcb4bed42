// Package spec parses the line-oriented project files the command-line
// tools consume. A spec file declares a schema, loads tuples, and defines
// citation views in one self-contained document:
//
//	-- comment
//	relation Family(FID int*, FName string, Desc string)
//	tuple Family(11, 'Calcitonin', 'C1')
//	view lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)
//	cite V1 fields identifier,author lambda FID. CV1(FID, PName) :- Committee(FID, PName)
//	static V1 database 'IUPHAR/BPS Guide to PHARMACOLOGY'
//
// A trailing '*' on an attribute marks a key column. "cite" and "static"
// lines attach to the most recently named view (the name right after the
// keyword).
package spec

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/format"
	"repro/internal/schema"
	"repro/internal/value"
)

// Load parses a spec document and builds a ready-to-use System.
func Load(src string) (*core.System, error) {
	s := schema.New()
	type pendingView struct {
		src    string
		cites  []core.CitationSpec
		static format.Record
	}
	var views []*pendingView
	byName := map[string]*pendingView{}
	type pendingTuple struct {
		rel  string
		vals []value.Value
		line int
	}
	var tuples []pendingTuple

	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "--") || strings.HasPrefix(line, "#") {
			continue
		}
		keyword, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch keyword {
		case "relation":
			rel, err := parseRelation(rest)
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", lineNo+1, err)
			}
			if err := s.Add(rel); err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", lineNo+1, err)
			}
		case "tuple":
			rel, vals, err := parseTuple(rest)
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", lineNo+1, err)
			}
			tuples = append(tuples, pendingTuple{rel: rel, vals: vals, line: lineNo + 1})
		case "view":
			q, err := cq.Parse(rest)
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", lineNo+1, err)
			}
			pv := &pendingView{src: rest}
			views = append(views, pv)
			byName[q.Name] = pv
		case "cite":
			viewName, citeRest, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("spec: line %d: cite needs a view name", lineNo+1)
			}
			pv := byName[viewName]
			if pv == nil {
				return nil, fmt.Errorf("spec: line %d: cite references unknown view %s", lineNo+1, viewName)
			}
			citeRest = strings.TrimSpace(citeRest)
			if !strings.HasPrefix(citeRest, "fields ") {
				return nil, fmt.Errorf("spec: line %d: cite syntax is: cite <view> fields f1,f2 <query>", lineNo+1)
			}
			citeRest = strings.TrimSpace(strings.TrimPrefix(citeRest, "fields "))
			fieldsPart, queryPart, ok := strings.Cut(citeRest, " ")
			if !ok {
				return nil, fmt.Errorf("spec: line %d: cite is missing the citation query", lineNo+1)
			}
			fields := strings.Split(fieldsPart, ",")
			for i := range fields {
				if fields[i] == "_" {
					fields[i] = ""
				}
			}
			queryPart = strings.TrimSpace(queryPart)
			if _, err := cq.Parse(queryPart); err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", lineNo+1, err)
			}
			pv.cites = append(pv.cites, core.CitationSpec{Query: queryPart, Fields: fields})
		case "static":
			viewName, kv, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("spec: line %d: static needs a view name", lineNo+1)
			}
			pv := byName[viewName]
			if pv == nil {
				return nil, fmt.Errorf("spec: line %d: static references unknown view %s", lineNo+1, viewName)
			}
			field, val, err := parseStatic(strings.TrimSpace(kv))
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", lineNo+1, err)
			}
			if pv.static == nil {
				pv.static = format.Record{}
			}
			pv.static.Add(field, val)
		default:
			return nil, fmt.Errorf("spec: line %d: unknown directive %q", lineNo+1, keyword)
		}
	}

	sys := core.NewSystem(s)
	db := sys.Database()
	for _, t := range tuples {
		rs := s.Relation(t.rel)
		if rs == nil {
			return nil, fmt.Errorf("spec: line %d: unknown relation %s", t.line, t.rel)
		}
		if len(t.vals) != rs.Arity() {
			return nil, fmt.Errorf("spec: line %d: tuple arity %d, relation %s has %d",
				t.line, len(t.vals), t.rel, rs.Arity())
		}
		for i := range t.vals {
			v, err := coerce(t.vals[i], rs.Attributes[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: attribute %s: %w", t.line, rs.Attributes[i].Name, err)
			}
			t.vals[i] = v
		}
		if err := db.Insert(t.rel, t.vals...); err != nil {
			return nil, fmt.Errorf("spec: line %d: %w", t.line, err)
		}
	}
	for _, pv := range views {
		if err := sys.DefineView(pv.src, pv.static, pv.cites...); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// coerce converts a parsed literal to the declared column kind: quoted
// strings may stand for time values, and integer literals may fill float
// columns.
func coerce(v value.Value, kind value.Kind) (value.Value, error) {
	if v.Kind() == kind {
		return v, nil
	}
	switch {
	case kind == value.KindTime && v.Kind() == value.KindString:
		parsed := value.Parse(v.Str())
		if parsed.Kind() == value.KindTime {
			return parsed, nil
		}
		return v, fmt.Errorf("cannot parse %q as time (want RFC3339)", v.Str())
	case kind == value.KindFloat && v.Kind() == value.KindInt:
		return value.Float(float64(v.IntVal())), nil
	default:
		return v, fmt.Errorf("literal %s has kind %s, column wants %s", v.Quote(), v.Kind(), kind)
	}
}

// parseRelation parses "Name(attr kind[*], ...)".
func parseRelation(src string) (*schema.Relation, error) {
	open := strings.IndexByte(src, '(')
	if open < 0 || !strings.HasSuffix(src, ")") {
		return nil, fmt.Errorf("relation syntax is: relation Name(attr kind, ...)")
	}
	name := strings.TrimSpace(src[:open])
	inner := src[open+1 : len(src)-1]
	var attrs []schema.Attribute
	var keys []string
	for _, part := range strings.Split(inner, ",") {
		fields := strings.Fields(strings.TrimSpace(part))
		if len(fields) != 2 {
			return nil, fmt.Errorf("attribute %q: want \"name kind\"", part)
		}
		attrName := fields[0]
		kindName := fields[1]
		isKey := strings.HasSuffix(kindName, "*")
		kindName = strings.TrimSuffix(kindName, "*")
		var kind value.Kind
		switch kindName {
		case "string":
			kind = value.KindString
		case "int":
			kind = value.KindInt
		case "float":
			kind = value.KindFloat
		case "time":
			kind = value.KindTime
		default:
			return nil, fmt.Errorf("unknown kind %q", kindName)
		}
		attrs = append(attrs, schema.Attribute{Name: attrName, Kind: kind})
		if isKey {
			keys = append(keys, attrName)
		}
	}
	return schema.NewRelation(name, attrs, keys...)
}

// parseTuple parses "Relation(v1, v2, ...)" with constant terms, reusing
// the query parser on a synthetic body-less rule.
func parseTuple(src string) (string, []value.Value, error) {
	q, err := cq.Parse(src + " :- true")
	if err != nil {
		return "", nil, err
	}
	vals := make([]value.Value, len(q.Head))
	for i, t := range q.Head {
		if t.IsVar {
			return "", nil, fmt.Errorf("tuple values must be constants, found variable %s", t.Name)
		}
		vals[i] = t.Const
	}
	return q.Name, vals, nil
}

// parseStatic parses "field 'value'" or "field value".
func parseStatic(src string) (string, string, error) {
	field, val, ok := strings.Cut(src, " ")
	if !ok {
		return "", "", fmt.Errorf("static syntax is: static <view> <field> <value>")
	}
	val = strings.TrimSpace(val)
	if strings.HasPrefix(val, "'") && strings.HasSuffix(val, "'") && len(val) >= 2 {
		val = strings.ReplaceAll(val[1:len(val)-1], "''", "'")
	}
	return field, val, nil
}
