//! End-to-end evaluator tests over realistic service-description corpora,
//! including the chapter-3 example discovery queries of the dissertation.

use std::sync::Arc;
use wsda_xml::{parse_fragment, Element};
use wsda_xq::{DynamicContext, Item, Query, Sequence};

fn corpus() -> Vec<Arc<Element>> {
    let docs = [
        r#"<tuple link="http://cms.cern.ch/exec" type="service" ctx="parent">
             <content>
               <service>
                 <interface type="Executor-1.0">
                   <operation><name>submitJob</name><bindhttp verb="GET" url="https://cms.cern.ch/exec/submit"/></operation>
                 </interface>
                 <interface type="Presenter-1.0">
                   <operation><name>getServiceDescription</name></operation>
                 </interface>
                 <owner>cms.cern.ch</owner>
                 <load>0.2</load>
               </service>
             </content>
           </tuple>"#,
        r#"<tuple link="http://atlas.cern.ch/rc" type="service" ctx="parent">
             <content>
               <service>
                 <interface type="ReplicaCatalog-2.0">
                   <operation><name>lookup</name></operation>
                 </interface>
                 <owner>atlas.cern.ch</owner>
                 <load>0.9</load>
               </service>
             </content>
           </tuple>"#,
        r#"<tuple link="http://fnal.gov/storage" type="service" ctx="child">
             <content>
               <service>
                 <interface type="Storage-1.1">
                   <operation><name>put</name></operation>
                   <operation><name>get</name></operation>
                 </interface>
                 <owner>fnal.gov</owner>
                 <load>0.5</load>
               </service>
             </content>
           </tuple>"#,
        r#"<tuple link="http://in2p3.fr/monitor" type="monitor" ctx="parent">
             <content>
               <monitor kind="network"><latency ms="12"/></monitor>
             </content>
           </tuple>"#,
    ];
    docs.iter().map(|d| Arc::new(parse_fragment(d).unwrap())).collect()
}

fn run(q: &str) -> Sequence {
    let query = Query::parse(q).unwrap_or_else(|e| panic!("parse {q:?}: {e}"));
    query.eval_over(corpus()).unwrap_or_else(|e| panic!("eval {q:?}: {e}"))
}

fn strings(q: &str) -> Vec<String> {
    run(q).iter().map(|i| i.string_value()).collect()
}

fn count(q: &str) -> usize {
    run(q).len()
}

// ---- basic paths ---------------------------------------------------------

#[test]
fn root_path_selects_documents() {
    assert_eq!(count("/"), 4);
    assert_eq!(count("/tuple"), 4);
    assert_eq!(count("/nothing"), 0);
}

#[test]
fn descendant_paths() {
    assert_eq!(count("//service"), 3);
    assert_eq!(count("//interface"), 4);
    assert_eq!(count("//operation"), 5);
    assert_eq!(count("//operation/name"), 5);
}

#[test]
fn attribute_selection() {
    let types = strings("/tuple/@type");
    assert_eq!(types, ["service", "service", "service", "monitor"]);
    assert_eq!(strings("//interface[1]/@type")[0], "Executor-1.0");
}

#[test]
fn wildcard_and_text_steps() {
    assert_eq!(count("/tuple/*"), 4); // four content elements
    assert_eq!(strings("//load/text()"), ["0.2", "0.9", "0.5"]);
}

#[test]
fn parent_axis() {
    // owner's parent is service; its parent is content
    assert_eq!(run("//owner/..")[0].as_node().unwrap().name(), "service");
    assert_eq!(count("//owner/../.."), 3);
}

#[test]
fn positional_predicates() {
    assert_eq!(
        strings("//operation[1]/name"),
        ["submitJob", "getServiceDescription", "lookup", "put"]
    );
    assert_eq!(strings("//operation[2]/name"), ["get"]);
    assert_eq!(
        strings("//operation[last()]/name"),
        ["submitJob", "getServiceDescription", "lookup", "get"]
    );
    assert_eq!(count("//interface[position() = 1]"), 3);
}

// ---- predicates and comparisons -------------------------------------------

#[test]
fn string_equality_predicates() {
    assert_eq!(count(r#"/tuple[@type = "service"]"#), 3);
    assert_eq!(count(r#"//service[owner = "cms.cern.ch"]"#), 1);
    assert_eq!(count(r#"//service[owner != "cms.cern.ch"]"#), 2);
}

#[test]
fn numeric_comparisons() {
    assert_eq!(count("//service[load < 0.6]"), 2);
    assert_eq!(count("//service[load >= 0.9]"), 1);
    assert_eq!(count("//latency[@ms > 10]"), 1);
    assert_eq!(count("//latency[@ms > 20]"), 0);
}

#[test]
fn boolean_connectives() {
    assert_eq!(count(r#"//service[load < 0.6 and owner = "fnal.gov"]"#), 1);
    assert_eq!(count(r#"//service[owner = "cms.cern.ch" or owner = "fnal.gov"]"#), 2);
    assert_eq!(count(r#"//service[not(owner = "cms.cern.ch")]"#), 2);
}

#[test]
fn existential_general_comparison() {
    // any operation named `get`
    assert_eq!(count(r#"//service[interface/operation/name = "get"]"#), 1);
}

// ---- chapter 3 example discovery queries ----------------------------------

#[test]
fn q_simple_find_service_by_link() {
    // "Return the service with the given identifier" — simple query.
    let q = r#"/tuple[@link = "http://cms.cern.ch/exec"]"#;
    assert_eq!(count(q), 1);
    let query = Query::parse(q).unwrap();
    assert_eq!(query.profile().class, wsda_xq::QueryClass::Simple);
}

#[test]
fn q_medium_find_executor_services() {
    // "Find all services that implement a job executor interface."
    let q = r#"//service[interface/@type = "Executor-1.0"]"#;
    assert_eq!(count(q), 1);
    assert_eq!(Query::parse(q).unwrap().profile().class, wsda_xq::QueryClass::Medium);
}

#[test]
fn q_medium_interface_prefix_match() {
    // "Find all services that implement any version of a storage interface."
    let q = r#"//service[some $i in interface satisfies starts-with($i/@type, "Storage-")]"#;
    assert_eq!(count(q), 1);
}

#[test]
fn q_medium_domain_scope() {
    // "Find services within the cern.ch domain."
    let q = r#"//service[ends-with(owner, ".cern.ch") or owner = "cern.ch"]"#;
    assert_eq!(count(q), 2);
}

#[test]
fn q_complex_least_loaded_executor() {
    // "Among executor-capable services, return the least loaded."
    let q = r#"
        (for $s in //service
         where exists($s/interface)
         order by number($s/load)
         return $s)[1]/owner"#;
    assert_eq!(strings(q), ["cms.cern.ch"]);
}

#[test]
fn q_complex_aggregate_total_capacity() {
    // "Compute aggregate statistics over all services" — count and average load.
    assert_eq!(run("count(//service)")[0].number_value(), 3.0);
    let avg = run("avg(//service/load)")[0].number_value();
    assert!((avg - (0.2 + 0.9 + 0.5) / 3.0).abs() < 1e-12);
}

#[test]
fn q_complex_join_services_with_monitor() {
    // Correlated query: pair each service with every network monitor
    // (the thesis scheduler example correlates execution and data locality).
    let q = r#"
        for $s in //service, $m in //monitor
        where $m/@kind = "network" and $s/load < 0.6
        return <pair owner="{$s/owner}" latency="{$m/latency/@ms}"/>"#;
    let out = run(q);
    assert_eq!(out.len(), 2);
    let first = out[0].as_node().unwrap();
    assert_eq!(first.element().attr("latency"), Some("12"));
    assert_eq!(Query::parse(q).unwrap().profile().class, wsda_xq::QueryClass::Complex);
}

#[test]
fn q_complex_restructuring_report() {
    // "Return a report of owners with their interface counts."
    let q = r#"
        for $s in //service
        order by $s/owner
        return element entry {
            attribute owner { $s/owner },
            attribute ifaces { count($s/interface) }
        }"#;
    let out = run(q);
    assert_eq!(out.len(), 3);
    let owners: Vec<String> = out
        .iter()
        .map(|i| i.as_node().unwrap().element().attr("owner").unwrap().to_owned())
        .collect();
    assert_eq!(owners, ["atlas.cern.ch", "cms.cern.ch", "fnal.gov"]);
    assert_eq!(out[1].as_node().unwrap().element().attr("ifaces"), Some("2"));
}

// ---- FLWOR mechanics -------------------------------------------------------

#[test]
fn flwor_let_and_positional() {
    let q = r#"
        for $s at $i in //service
        let $o := $s/owner
        where $i <= 2
        return concat($i, ":", $o)"#;
    assert_eq!(strings(q), ["1:cms.cern.ch", "2:atlas.cern.ch"]);
}

#[test]
fn flwor_order_descending() {
    let q = "for $s in //service order by number($s/load) descending return $s/owner";
    assert_eq!(strings(q), ["atlas.cern.ch", "fnal.gov", "cms.cern.ch"]);
}

#[test]
fn flwor_multi_key_ordering() {
    let q = r#"
        for $o in //operation
        order by string($o/../@type) descending, $o/name
        return $o/name"#;
    let got = strings(q);
    assert_eq!(got, ["get", "put", "lookup", "getServiceDescription", "submitJob"]);
}

#[test]
fn quantifiers() {
    assert_eq!(
        count(r#"//service[every $o in interface/operation satisfies string-length($o/name) > 2]"#),
        3
    );
    assert_eq!(
        count(r#"//service[some $o in interface/operation satisfies $o/name = "lookup"]"#),
        1
    );
}

#[test]
fn conditional_expression() {
    let q = r#"for $s in //service return if ($s/load < 0.6) then "ok" else "busy""#;
    assert_eq!(strings(q), ["ok", "busy", "ok"]);
}

// ---- operators --------------------------------------------------------------

#[test]
fn arithmetic_and_ranges() {
    assert_eq!(run("1 + 2 * 3")[0].number_value(), 7.0);
    assert_eq!(run("7 idiv 2")[0].number_value(), 3.0);
    assert_eq!(run("7 mod 2")[0].number_value(), 1.0);
    assert_eq!(run("1 to 4").len(), 4);
    assert_eq!(run("4 to 1").len(), 0);
    assert_eq!(run("sum(1 to 100)")[0].number_value(), 5050.0);
    assert!(run("() + 1").is_empty());
}

#[test]
fn division_by_zero_errors() {
    let q = Query::parse("1 idiv 0").unwrap();
    assert!(q.eval(&mut DynamicContext::new()).is_err());
    let q = Query::parse("1 div 0").unwrap();
    assert_eq!(q.eval(&mut DynamicContext::new()).unwrap()[0].number_value(), f64::INFINITY);
}

#[test]
fn union_dedups_in_document_order() {
    let q = "//owner | //load | //owner";
    assert_eq!(count(q), 6);
    let names: Vec<String> = run(q).iter().map(|i| i.as_node().unwrap().name()).collect();
    assert_eq!(names, ["owner", "load", "owner", "load", "owner", "load"]);
}

#[test]
fn value_comparisons_strings() {
    assert_eq!(run("'abc' lt 'abd'")[0], Item::Bool(true));
    assert_eq!(run("'x' eq 'x'")[0], Item::Bool(true));
    assert!(run("() eq 'x'").is_empty());
}

// ---- functions ---------------------------------------------------------------

#[test]
fn string_functions() {
    assert_eq!(run("concat('a', 'b', 'c')")[0].string_value(), "abc");
    assert_eq!(run("contains('lxplus.cern.ch', 'cern')")[0], Item::Bool(true));
    assert_eq!(run("substring('12345', 2, 3)")[0].string_value(), "234");
    assert_eq!(run("substring-before('a=b', '=')")[0].string_value(), "a");
    assert_eq!(run("substring-after('a=b', '=')")[0].string_value(), "b");
    assert_eq!(run("normalize-space('  a   b ')")[0].string_value(), "a b");
    assert_eq!(run("upper-case('cern')")[0].string_value(), "CERN");
    assert_eq!(run("string-join(('a','b','c'), '-')")[0].string_value(), "a-b-c");
    assert_eq!(run("translate('abc', 'abc', 'xyz')")[0].string_value(), "xyz");
    assert_eq!(run("translate('abc', 'b', '')")[0].string_value(), "ac");
    assert_eq!(run("tokenize('a,b,c', ',')").len(), 3);
    assert_eq!(run("matches('lxplus.cern.ch', '*.cern.ch')")[0], Item::Bool(true));
    assert_eq!(run("string-length('héllo')")[0].number_value(), 5.0);
}

#[test]
fn numeric_functions() {
    assert_eq!(run("round(2.5)")[0].number_value(), 3.0);
    assert_eq!(run("round(-2.5)")[0].number_value(), -2.0);
    assert_eq!(run("floor(2.9)")[0].number_value(), 2.0);
    assert_eq!(run("ceiling(2.1)")[0].number_value(), 3.0);
    assert_eq!(run("abs(-3)")[0].number_value(), 3.0);
    assert!(run("number('nope')")[0].number_value().is_nan());
}

#[test]
fn sequence_functions() {
    assert_eq!(run("distinct-values(('a','b','a'))").len(), 2);
    assert_eq!(run("reverse((1,2,3))")[0].number_value(), 3.0);
    assert_eq!(run("subsequence((1,2,3,4), 2, 2)").len(), 2);
    assert_eq!(run("subsequence((1,2,3,4), 3)").len(), 2);
    assert_eq!(run("insert-before((1,3), 2, 2)").len(), 3);
    assert_eq!(run("remove((1,2,3), 2)").len(), 2);
    assert_eq!(run("index-of(('a','b','a'), 'a')").len(), 2);
    assert_eq!(run("empty(())")[0], Item::Bool(true));
    assert_eq!(run("exists(//service)")[0], Item::Bool(true));
    assert_eq!(run("min((3,1,2))")[0].number_value(), 1.0);
    assert_eq!(run("max(('a','c','b'))")[0].string_value(), "c");
}

#[test]
fn node_functions() {
    assert_eq!(run("name((//interface)[1])")[0].string_value(), "interface");
    assert_eq!(run("local-name((//interface)[1])")[0].string_value(), "interface");
    assert_eq!(run("data(//owner)").len(), 3);
    assert_eq!(count("root((//owner)[1])"), 1);
}

#[test]
fn unknown_function_errors() {
    let q = Query::parse("frobnicate(1)").unwrap();
    assert!(matches!(
        q.eval(&mut DynamicContext::new()),
        Err(wsda_xq::XqError::UnknownFunction { .. })
    ));
}

// ---- constructors --------------------------------------------------------------

#[test]
fn direct_constructor_copies_nodes() {
    let q = r#"<summary count="{count(//service)}">{ (//owner)[1] }</summary>"#;
    let out = run(q);
    let e = out[0].as_node().unwrap().element().clone();
    assert_eq!(e.attr("count"), Some("3"));
    assert_eq!(e.first_child_named("owner").unwrap().text(), "cms.cern.ch");
}

#[test]
fn constructor_joins_atomics_with_spaces() {
    let out = run("<x>{ (1, 2, 3) }</x>");
    assert_eq!(out[0].as_node().unwrap().element().text(), "1 2 3");
}

#[test]
fn computed_attribute_attaches() {
    let out = run(r#"element svc { attribute kind { "exec" }, "body" }"#);
    let e = out[0].as_node().unwrap().element().clone();
    assert_eq!(e.attr("kind"), Some("exec"));
    assert_eq!(e.text(), "body");
}

// ---- variables and context ------------------------------------------------------

#[test]
fn externally_bound_variables() {
    let q = Query::parse("//service[owner = $dom]/load").unwrap();
    let mut ctx = DynamicContext::with_roots(corpus());
    ctx.bind("dom", vec![Item::str("fnal.gov")]);
    let out = q.eval(&mut ctx).unwrap();
    assert_eq!(out[0].string_value(), "0.5");
}

#[test]
fn unbound_variable_errors() {
    let q = Query::parse("$nope").unwrap();
    assert!(matches!(
        q.eval(&mut DynamicContext::new()),
        Err(wsda_xq::XqError::UnboundVariable(_))
    ));
}

#[test]
fn missing_context_item_errors() {
    let q = Query::parse("owner").unwrap();
    assert!(matches!(
        q.eval(&mut DynamicContext::new()),
        Err(wsda_xq::XqError::MissingContextItem)
    ));
}

#[test]
fn work_limit_enforced() {
    let q = Query::parse("sum(1 to 1000000)").unwrap();
    let mut ctx = DynamicContext::new().with_work_limit(10);
    assert!(matches!(q.eval(&mut ctx), Err(wsda_xq::XqError::ResourceLimit(_))));
}

#[test]
fn work_counter_reports() {
    let q = Query::parse("1 + 1").unwrap();
    let mut ctx = DynamicContext::new();
    q.eval(&mut ctx).unwrap();
    assert!(ctx.work() >= 3);
}

#[test]
fn deep_recursion_guarded() {
    // 300 nested parens exceed MAX_DEPTH at eval time.
    let src = format!("{}1{}", "(".repeat(300), ")".repeat(300));
    // Rejecting at parse time is equally acceptable.
    if let Ok(q) = Query::parse(&src) {
        assert!(q.eval(&mut DynamicContext::new()).is_err());
    }
}

// ---- separability: the UPDF merge property ---------------------------------------

#[test]
fn separable_query_unions_per_tuple_results() {
    // Evaluating per tuple and concatenating must equal whole-set evaluation
    // for separable queries — the property UPDF relies on (chapter 6).
    let q = Query::parse(r#"//service[load < 0.6]/owner"#).unwrap();
    assert!(q.profile().separable);
    let whole: Vec<String> =
        q.eval_over(corpus()).unwrap().iter().map(|i| i.string_value()).collect();
    let mut per_tuple: Vec<String> = Vec::new();
    for doc in corpus() {
        per_tuple.extend(q.eval_over(vec![doc]).unwrap().iter().map(|i| i.string_value()));
    }
    assert_eq!(whole, per_tuple);
}

// ---- loop-invariant hoisting ------------------------------------------------

#[test]
fn free_vars_analysis() {
    use std::collections::HashSet;
    let fv = |src: &str| -> HashSet<String> { Query::parse(src).unwrap().expr().free_vars() };
    assert!(fv("1 + 2").is_empty());
    assert_eq!(fv("$a + $b").len(), 2);
    assert!(fv("for $x in //a return $x").is_empty());
    assert_eq!(fv("for $x in //a return $x + $y"), ["y".to_owned()].into_iter().collect());
    assert!(fv("some $x in (1,2) satisfies $x = 2").is_empty());
    assert_eq!(fv("some $x in $src satisfies $x = 2"), ["src".to_owned()].into_iter().collect());
    assert!(fv("let $x := 1 return $x").is_empty());
    // a var bound by an inner scope is free in an outer sibling
    assert_eq!(fv("(for $x in //a return $x), $x"), ["x".to_owned()].into_iter().collect());
    assert_eq!(fv("<e a=\"{$v}\">{$w}</e>").len(), 2);
}

#[test]
fn join_results_identical_with_and_without_hoisting() {
    let q = Query::parse(
        r#"for $a in //service, $b in //service
           where $a/owner = $b/owner and $a/load < $b/load
           return concat($a/owner, ":", $a/load, "<", $b/load)"#,
    )
    .unwrap();
    let run = |hoist: bool| -> Vec<String> {
        let mut ctx = DynamicContext::with_roots(corpus()).with_hoisting(hoist);
        q.eval(&mut ctx).unwrap().iter().map(|i| i.string_value()).collect()
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with, without);
    assert!(!with.is_empty() || with.is_empty()); // order preserved either way
}

#[test]
fn correlated_inner_source_not_hoisted_incorrectly() {
    // The inner source *depends* on $a — hoisting must not change results.
    let q = Query::parse(
        r#"for $a in //service, $i in $a/interface
           return $i/@type"#,
    )
    .unwrap();
    let with: Vec<String> = {
        let mut ctx = DynamicContext::with_roots(corpus());
        q.eval(&mut ctx).unwrap().iter().map(|i| i.string_value()).collect()
    };
    let without: Vec<String> = {
        let mut ctx = DynamicContext::with_roots(corpus()).with_hoisting(false);
        q.eval(&mut ctx).unwrap().iter().map(|i| i.string_value()).collect()
    };
    assert_eq!(with, without);
    assert_eq!(with.len(), 4, "one row per interface");
}

#[test]
fn hoisting_reduces_work() {
    let q = Query::parse(r#"for $a in //service, $b in //service return 1"#).unwrap();
    let work = |hoist: bool| {
        let mut ctx = DynamicContext::with_roots(corpus()).with_hoisting(hoist);
        q.eval(&mut ctx).unwrap();
        ctx.work()
    };
    assert!(work(true) < work(false), "hoisting must reduce evaluation work");
}

// ---- set operators and newer builtins ---------------------------------------

#[test]
fn intersect_and_except() {
    assert_eq!(count("//service intersect //service[load < 0.6]"), 2);
    assert_eq!(count("//service except //service[load < 0.6]"), 1);
    assert_eq!(count("//interface except //interface"), 0);
    assert_eq!(count("(//owner | //load) intersect //owner"), 3);
    // keyword union form
    assert_eq!(count("//owner union //load"), 6);
    // document order preserved
    let names: Vec<String> = run("(//owner | //load) except //load")
        .iter()
        .map(|i| i.as_node().unwrap().name())
        .collect();
    assert_eq!(names, ["owner", "owner", "owner"]);
}

#[test]
fn set_ops_reject_atomics() {
    let q = Query::parse("(1,2) intersect (2,3)").unwrap();
    assert!(q.eval(&mut DynamicContext::new()).is_err());
}

#[test]
fn head_tail_cardinality_builtins() {
    assert_eq!(run("head((1,2,3))")[0].number_value(), 1.0);
    assert!(run("head(())").is_empty());
    assert_eq!(run("tail((1,2,3))").len(), 2);
    assert!(run("tail(())").is_empty());
    assert_eq!(run("zero-or-one(())").len(), 0);
    assert_eq!(run("zero-or-one((1))").len(), 1);
    assert!(Query::parse("zero-or-one((1,2))").unwrap().eval(&mut DynamicContext::new()).is_err());
    assert_eq!(run("exactly-one((5))")[0].number_value(), 5.0);
    assert!(Query::parse("exactly-one(())").unwrap().eval(&mut DynamicContext::new()).is_err());
}

#[test]
fn replace_and_compare() {
    assert_eq!(run("replace('a.b.c', '.', '/')")[0].string_value(), "a/b/c");
    assert!(Query::parse("replace('x', '', 'y')")
        .unwrap()
        .eval(&mut DynamicContext::new())
        .is_err());
    assert_eq!(run("compare('a', 'b')")[0].number_value(), -1.0);
    assert_eq!(run("compare('b', 'b')")[0].number_value(), 0.0);
    assert_eq!(run("compare('c', 'b')")[0].number_value(), 1.0);
}

#[test]
fn string_literal_operands_compare_like_computed_strings() {
    // A literal operand of a general comparison is compared in place; a
    // `string(...)` of the same literal is a computed string item. Both
    // must give the same answer under every operator and operand type.
    let literals = ["''", "'1'", "' 1.0 '", "'abc'", "'true'", "'NaN'"];
    let others = [
        "1",
        "0",
        "true()",
        "false()",
        "'abc'",
        "''",
        "()",
        "(2, 'abc')",
        "//service/load",
        "//service/owner",
    ];
    for op in ["=", "!=", "<", "<=", ">", ">="] {
        for lit in literals {
            for other in others {
                for (q, reference) in [
                    (format!("{lit} {op} {other}"), format!("string({lit}) {op} {other}")),
                    (format!("{other} {op} {lit}"), format!("{other} {op} string({lit})")),
                    (format!("{lit} {op} {lit}"), format!("string({lit}) {op} string({lit})")),
                ] {
                    assert_eq!(run(&q), run(&reference), "{q}");
                }
            }
        }
    }
}

#[test]
fn strings_either_side_of_the_inline_limit_compare_and_serialize_alike() {
    // Element names, attribute names and values and texts of 22 bytes
    // (stored inline in the node) and 23 bytes (stored on the heap); `mid`
    // is 23 bytes whose two-byte 'é' straddles byte 22.
    let inline = "a".repeat(22);
    let boxed = "a".repeat(23);
    let mid = format!("{}é", "b".repeat(21));
    let src = format!(
        "<doc><{inline} {inline}=\"{boxed}\">{mid}</{inline}>\
         <{boxed} {boxed}=\"{inline}\">{boxed}</{boxed}>\
         <e k=\"{mid}\">{inline}</e></doc>"
    );
    let doc = Arc::new(parse_fragment(&src).unwrap());
    assert_eq!(doc.to_compact_string(), src);
    let eval = |q: &str| -> Vec<String> {
        let query = Query::parse(q).unwrap_or_else(|e| panic!("parse {q:?}: {e}"));
        let seq = query.eval_over(vec![doc.clone()]).unwrap_or_else(|e| panic!("eval {q:?}: {e}"));
        seq.iter().map(|i| i.serialize()).collect()
    };

    // Name tests and attribute lookups on both sides of the limit.
    assert_eq!(eval(&format!("//{inline}/@{inline}")), [boxed.as_str()]);
    assert_eq!(eval(&format!("//{boxed}/@{boxed}")), [inline.as_str()]);
    assert_eq!(eval(&format!("//{inline}/text()")), [mid.as_str()]);
    assert_eq!(eval(&format!("for $e in //*[@* = '{inline}'] return name($e)")), [boxed.as_str()]);
    assert_eq!(eval(&format!("for $e in //*[. = '{boxed}'] return name($e)")), [boxed.as_str()]);
    assert_eq!(eval(&format!("//e[@k = '{mid}']")), [format!("<e k=\"{mid}\">{inline}</e>")]);

    // Lexicographic order: the 22-byte string sorts before the 23-byte one.
    assert_eq!(eval(&format!("count(//@*[. lt '{boxed}'])")), ["1"]);
    assert_eq!(eval(&format!("count(//*[not(*)][. ge '{inline}'])")), ["3"]);
    assert_eq!(eval(&format!("count(//*[not(*)][. gt '{boxed}'])")), ["1"]);
    assert_eq!(eval(&format!("compare(//e, //{boxed})")), ["-1"]);

    // Prefix and suffix tests across the limit, and on the straddling char.
    assert_eq!(eval(&format!("count(//*[starts-with(@*, '{inline}')])")), ["2"]);
    assert_eq!(eval(&format!("count(//*[starts-with(., '{boxed}')])")), ["1"]);
    assert_eq!(eval("count(//*[ends-with(@*, 'bé')])"), ["1"]);
    assert_eq!(eval(&format!("string-length(//{inline})")), ["22"]);
    assert_eq!(eval(&format!("ends-with(//{inline}, 'é')")), ["true"]);

    // Constructed results serialize every string whole.
    assert_eq!(
        eval(&format!("<r n=\"{{//{inline}}}\">{{//{boxed}/@{boxed}}}{{//e}}</r>")),
        [format!("<r n=\"{mid}\" {boxed}=\"{inline}\"><e k=\"{mid}\">{inline}</e></r>")]
    );
}
