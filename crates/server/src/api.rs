//! The JSON request/response schema of the query endpoints, plus the
//! canonical query fingerprint the cache is keyed by.
//!
//! Responses are rendered with the workspace's deterministic JSON
//! writers ([`correlation_sketches::json`]), so a response body is a
//! pure function of `(ranked results, generation)` — the property that
//! makes "cache hit is byte-identical to cache miss" and "server answer
//! is byte-identical to a single-process [`engine::top_k_with_reports`]
//! call" testable as exact byte equality.
//!
//! Requests go the other way in one pass: body bytes through a pull
//! [`Reader`] straight into [`QueryRequest`] / [`BatchRequest`], the
//! `trace` flag learned along the way — no `json::Value` tree on the
//! public request path. The tree ([`json::parse`]) remains under the
//! coordinator-side decoders of worker *responses* and the two client
//! helpers ([`extract_u64`], [`is_error_body`]): that JSON wire is due
//! to be replaced by the binary record encoding, not tuned.
//!
//! [`engine::top_k_with_reports`]: sketch_index::engine::top_k_with_reports

use correlation_sketches::json::{self, push_f64, push_string, Reader};
use correlation_sketches::{EstimateReport, SketchError};
use sketch_hashing::murmur3_x64_128;
use sketch_index::{DocId, PlanMode, QueryOptions, ReportedResult, Scorer, ShardCandidate};
use sketch_stats::{ConfidenceInterval, CorrelationEstimator, ScoredEstimate};

/// Ranking parameters shared by `/query` and `/query_batch`, resolved
/// against the server's defaults when a field is absent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryParams {
    /// Results returned after re-ranking.
    pub k: usize,
    /// Candidates retrieved by overlap before re-ranking.
    pub candidates: usize,
    /// Correlation estimator.
    pub estimator: CorrelationEstimator,
    /// Minimum join-sample size for an estimate.
    pub min_sample: usize,
    /// Hoeffding interval significance for the uncertainty reports.
    pub alpha: f64,
    /// Ranking scorer (`s1..s4`).
    pub scorer: Scorer,
    /// Confidence level of the per-candidate interval the scorer
    /// consumes.
    pub confidence: f64,
    /// Query plan: exhaustive, or the two-pass pruning planner.
    pub plan: PlanMode,
}

impl Default for QueryParams {
    fn default() -> Self {
        let opts = QueryOptions::default();
        Self {
            k: opts.k,
            candidates: opts.overlap_candidates,
            estimator: opts.estimator,
            min_sample: opts.min_sample,
            alpha: 0.05,
            scorer: opts.scorer,
            confidence: opts.confidence,
            plan: opts.plan,
        }
    }
}

impl QueryParams {
    /// The engine options these parameters resolve to. Joins run serial
    /// per request — the thread pool parallelizes across requests, and
    /// the engine's answers are thread-count-invariant anyway.
    #[must_use]
    pub fn to_options(&self) -> QueryOptions {
        QueryOptions {
            overlap_candidates: self.candidates,
            k: self.k,
            estimator: self.estimator,
            min_sample: self.min_sample,
            threads: 1,
            scorer: self.scorer,
            confidence: self.confidence,
            plan: self.plan,
        }
    }
}

/// One query: an ad-hoc column (keys + values) to correlate against the
/// corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBody {
    /// Label for the query column (becomes the query sketch's table
    /// name; purely cosmetic).
    pub id: String,
    /// Categorical join-key column.
    pub keys: Vec<String>,
    /// Numeric value column, same length as `keys`.
    pub values: Vec<f64>,
}

/// A parsed `POST /query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query column.
    pub body: QueryBody,
    /// Resolved ranking parameters.
    pub params: QueryParams,
    /// `"trace": true` — return a per-request span tree alongside the
    /// results. Deliberately *not* part of the fingerprint: tracing
    /// must never change what answer is computed or cached, only
    /// whether its timing breakdown is attached.
    pub trace: bool,
}

/// A parsed `POST /query_batch` request: many query columns ranked
/// under one shared set of parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// The query columns, answered in order.
    pub queries: Vec<QueryBody>,
    /// Resolved ranking parameters (shared by every query).
    pub params: QueryParams,
    /// `"trace": true` — attach the span tree (excluded from the
    /// fingerprint, like [`QueryRequest::trace`]).
    pub trace: bool,
}

/// Ceiling on request-supplied `k` and `candidates`. Both size
/// selection heaps, so an untrusted request must not be able to demand
/// an enormous allocation; far beyond any useful top-k over any corpus
/// this serves.
pub const MAX_SELECTION: usize = 100_000;

// ---------------------------------------------------------------------
// Request decoding: body bytes → typed request in one pass over a
// `json::Reader`. No `json::Value` tree is built: each known field is
// decoded where it stands, straight into the slot it ends up in, and
// every other field is skipped — checked as strictly as a full parse
// would check it, but kept nowhere.
//
// The accepted language: one JSON object; fields in any order; a field
// that appears twice counts the first time only; unknown fields may
// hold anything well-formed; nesting up to the reader's ceiling.
// ---------------------------------------------------------------------

/// Body bytes one `keys`/`values` row is assumed to take when sizing the
/// first of the two arrays before its length is known: a quoted key of
/// ten-odd bytes and a decimal value, with their commas. Shorter rows
/// cost the doublings an unsized `Vec` would have paid anyway.
const ROW_BYTES: usize = 24;

/// Walk a request body — one JSON object and nothing after it —
/// handing each field's name to `field` with the reader on its value.
fn request_fields(
    body: &[u8],
    mut field: impl FnMut(&mut Reader<'_>, &str) -> Result<(), String>,
) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("non-utf8 body: {e}"))?;
    let mut r = Reader::new(text);
    r.object("request", |r, name| field(r, &name))?;
    r.finish()
}

/// Decode an array, each element through `item`.
fn list<T>(
    r: &mut Reader<'_>,
    what: &str,
    capacity: usize,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(capacity);
    r.array(what, |r| {
        out.push(item(r)?);
        Ok(())
    })?;
    Ok(out)
}

fn missing(field: &str) -> String {
    SketchError::Corrupt(format!("missing field '{field}'")).to_string()
}

/// Decode a field's value into `slot` the first time the field appears;
/// a repeat is skipped.
fn first<T>(
    slot: &mut Option<T>,
    r: &mut Reader<'_>,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
) -> Result<(), String> {
    match slot {
        Some(_) => r.skip_value(),
        None => {
            *slot = Some(decode(r)?);
            Ok(())
        }
    }
}

fn bounded(r: &mut Reader<'_>, field: &str) -> Result<usize, String> {
    let n = usize::try_from(r.u64(field)?).map_err(|e| format!("{field}: {e}"))?;
    if n > MAX_SELECTION {
        return Err(format!("{field} must be <= {MAX_SELECTION}, got {n}"));
    }
    Ok(n)
}

/// A probability strictly inside (0, 1).
fn open_unit(r: &mut Reader<'_>, field: &str) -> Result<f64, String> {
    let p = r.f64(field)?;
    if !(p > 0.0 && p < 1.0) {
        return Err(format!("{field} must be in (0, 1), got {p}"));
    }
    Ok(p)
}

/// A string field naming an estimator, scorer or plan.
fn named<T: std::str::FromStr>(r: &mut Reader<'_>, field: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    r.string(field)?
        .parse()
        .map_err(|e| format!("{field}: {e}"))
}

/// The fields of one query column, as far as they have been seen.
#[derive(Default)]
struct ColumnFields {
    id: Option<String>,
    keys: Option<Vec<String>>,
    values: Option<Vec<f64>>,
    /// Capacity for whichever of `keys`/`values` comes first (the second
    /// takes the first's length). Bounded by the caller: reserving from
    /// it must not let a body claim more memory than its own size.
    rows_hint: usize,
}

impl ColumnFields {
    /// Decode `name`'s value if it is a column field; `false` leaves the
    /// value unread.
    fn read(&mut self, r: &mut Reader<'_>, name: &str) -> Result<bool, String> {
        match name {
            "id" => first(&mut self.id, r, |r| Ok(r.string("id")?.into_owned())),
            "keys" => {
                let rows = self.values.as_ref().map_or(self.rows_hint, Vec::len);
                first(&mut self.keys, r, |r| {
                    list(r, "keys", rows, |r| Ok(r.string("keys[]")?.into_owned()))
                })
            }
            "values" => {
                let rows = self.keys.as_ref().map_or(self.rows_hint, Vec::len);
                first(&mut self.values, r, |r| {
                    list(r, "values", rows, |r| r.f64("values[]"))
                })
            }
            _ => return Ok(false),
        }
        .map(|()| true)
    }

    fn finish(self) -> Result<QueryBody, String> {
        let id = self.id.unwrap_or_else(|| "query".to_string());
        let keys = self.keys.ok_or_else(|| missing("keys"))?;
        let values = self.values.ok_or_else(|| missing("values"))?;
        if keys.len() != values.len() {
            return Err(format!(
                "keys ({}) and values ({}) must have equal length",
                keys.len(),
                values.len()
            ));
        }
        if keys.is_empty() {
            return Err("keys must be non-empty".into());
        }
        if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(format!("values must be finite, got {bad}"));
        }
        Ok(QueryBody { id, keys, values })
    }
}

/// The fields `/query` and `/query_batch` share: the ranking parameters
/// and the trace flag.
#[derive(Default)]
struct SharedFields {
    k: Option<usize>,
    candidates: Option<usize>,
    estimator: Option<CorrelationEstimator>,
    min_sample: Option<usize>,
    alpha: Option<f64>,
    scorer: Option<Scorer>,
    confidence: Option<f64>,
    plan: Option<PlanMode>,
    trace: Option<bool>,
}

impl SharedFields {
    /// Decode `name`'s value if it is a shared field; `false` leaves the
    /// value unread.
    fn read(&mut self, r: &mut Reader<'_>, name: &str) -> Result<bool, String> {
        match name {
            "k" => first(&mut self.k, r, |r| bounded(r, "k")),
            "candidates" => first(&mut self.candidates, r, |r| bounded(r, "candidates")),
            "estimator" => first(&mut self.estimator, r, |r| named(r, "estimator")),
            "min_sample" => first(&mut self.min_sample, r, |r| {
                usize::try_from(r.u64("min_sample")?).map_err(|e| format!("min_sample: {e}"))
            }),
            "alpha" => first(&mut self.alpha, r, |r| open_unit(r, "alpha")),
            "scorer" => first(&mut self.scorer, r, |r| named(r, "scorer")),
            "confidence" => first(&mut self.confidence, r, |r| open_unit(r, "confidence")),
            "plan" => first(&mut self.plan, r, |r| named(r, "plan")),
            "trace" => first(&mut self.trace, r, |r| r.bool("trace")),
            _ => return Ok(false),
        }
        .map(|()| true)
    }

    /// The parameters with absent fields taken from `defaults`, and the
    /// trace flag.
    fn resolve(self, defaults: &QueryParams) -> (QueryParams, bool) {
        let params = QueryParams {
            k: self.k.unwrap_or(defaults.k),
            candidates: self.candidates.unwrap_or(defaults.candidates),
            estimator: self.estimator.unwrap_or(defaults.estimator),
            min_sample: self.min_sample.unwrap_or(defaults.min_sample),
            alpha: self.alpha.unwrap_or(defaults.alpha),
            scorer: self.scorer.unwrap_or(defaults.scorer),
            confidence: self.confidence.unwrap_or(defaults.confidence),
            plan: self.plan.unwrap_or(defaults.plan),
        };
        (params, self.trace.unwrap_or(false))
    }
}

/// Decode a `/query`-shaped body; `other` is handed every field that is
/// neither a column field nor a shared one, and must read or skip it.
fn decode_query(
    body: &[u8],
    defaults: &QueryParams,
    mut other: impl FnMut(&mut Reader<'_>, &str) -> Result<(), String>,
) -> Result<QueryRequest, String> {
    let mut column = ColumnFields {
        rows_hint: body.len() / ROW_BYTES,
        ..ColumnFields::default()
    };
    let mut shared = SharedFields::default();
    request_fields(body, |r, name| {
        if column.read(r, name)? || shared.read(r, name)? {
            Ok(())
        } else {
            other(r, name)
        }
    })?;
    let (params, trace) = shared.resolve(defaults);
    Ok(QueryRequest {
        body: column.finish()?,
        params,
        trace,
    })
}

/// The `queries` array of a `/query_batch` body. An element's arrays
/// start unsized: a batch may hold many columns, and each sizing its own
/// from the whole body's length would multiply the body's claim on
/// memory by their number.
fn decode_queries(r: &mut Reader<'_>) -> Result<Vec<QueryBody>, String> {
    let mut queries = Vec::new();
    r.array("queries", |r| {
        let mut column = ColumnFields::default();
        let query = r
            .object("queries[]", |r, name| {
                if column.read(r, &name)? {
                    Ok(())
                } else {
                    r.skip_value()
                }
            })
            .and_then(|()| column.finish());
        queries.push(query.map_err(|e| format!("queries[{}]: {e}", queries.len()))?);
        Ok(())
    })?;
    Ok(queries)
}

/// Decode `name`'s value if it is the `docs` field of a
/// `/shard_reports` body; skip it otherwise.
fn read_docs(docs: &mut Option<Vec<DocId>>, r: &mut Reader<'_>, name: &str) -> Result<(), String> {
    if name != "docs" {
        return r.skip_value();
    }
    first(docs, r, |r| {
        list(r, "docs", 0, |r| {
            DocId::try_from(r.u64("docs[]")?).map_err(|e| format!("docs[]: {e}"))
        })
    })
}

/// Decode a `POST /shard_reports` body — a `/query` body plus the
/// shard-local `docs` to report on — in one pass.
pub(crate) fn parse_reports_request(
    body: &[u8],
    defaults: &QueryParams,
) -> Result<(QueryRequest, Vec<DocId>), String> {
    let mut docs = None;
    let req = decode_query(body, defaults, |r, name| read_docs(&mut docs, r, name))?;
    Ok((req, docs.ok_or_else(|| missing("docs"))?))
}

impl QueryRequest {
    /// Parse a `POST /query` body, resolving absent parameters against
    /// `defaults`.
    ///
    /// # Errors
    ///
    /// A human-readable reason, safe to echo in a 400 response.
    pub fn parse(body: &[u8], defaults: &QueryParams) -> Result<Self, String> {
        decode_query(body, defaults, |r, _| r.skip_value())
    }

    /// The canonical fingerprint of this request (parameters included),
    /// for cache keying. Two requests that resolve to the same query
    /// and parameters share a fingerprint regardless of JSON field
    /// order, whitespace, or spelled-out defaults.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        canonical_fingerprint(b"query\x00", &self.params, std::slice::from_ref(&self.body))
    }
}

impl BatchRequest {
    /// Parse a `POST /query_batch` body: `{"queries":[...]}` plus the
    /// shared parameter fields of [`QueryParams`].
    ///
    /// # Errors
    ///
    /// A human-readable reason, safe to echo in a 400 response.
    pub fn parse(body: &[u8], defaults: &QueryParams) -> Result<Self, String> {
        let mut queries = None;
        let mut shared = SharedFields::default();
        request_fields(body, |r, name| {
            if name == "queries" {
                first(&mut queries, r, decode_queries)
            } else if shared.read(r, name)? {
                Ok(())
            } else {
                r.skip_value()
            }
        })?;
        let queries = queries.ok_or_else(|| missing("queries"))?;
        if queries.is_empty() {
            return Err("queries must be non-empty".into());
        }
        let (params, trace) = shared.resolve(defaults);
        Ok(Self {
            queries,
            params,
            trace,
        })
    }

    /// Canonical fingerprint of the whole batch, for cache keying.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        canonical_fingerprint(b"batch\x00", &self.params, &self.queries)
    }
}

/// Seed of the fingerprint hash (arbitrary, fixed forever: fingerprints
/// of a given request must be stable across server restarts for the
/// cache key space to make sense in logs).
const FINGERPRINT_SEED: u64 = 0x5e7e_5e7e_5e7e_5e7e;

fn fingerprint_of(bytes: &[u8]) -> u128 {
    let (h1, h2) = murmur3_x64_128(bytes, FINGERPRINT_SEED);
    (u128::from(h1) << 64) | u128::from(h2)
}

/// Hash of the raw request-body bytes, keying the parse-skipping memo
/// in front of the response cache ([`crate::cache::ParseMemo`]). Unlike
/// [`QueryRequest::fingerprint`] this is *not* canonical — bodies that
/// differ only in JSON field order hash differently — which is exactly
/// why it is only ever a memo key, never a cache key.
#[must_use]
pub fn raw_fingerprint(bytes: &[u8]) -> u128 {
    fingerprint_of(bytes)
}

/// Hash the canonical byte form of a request: `tag`, the resolved
/// parameters, then each query column length-prefixed. The scratch
/// buffer is sized exactly — a row is 16 bytes of key length and value
/// bits *plus* the key's own bytes, so a per-row guess either wastes the
/// buffer or regrows (and copies) it on every miss.
fn canonical_fingerprint(tag: &[u8; 6], params: &QueryParams, queries: &[QueryBody]) -> u128 {
    let len = tag.len() + params_len(params) + queries.iter().map(query_len).sum::<usize>();
    let mut bytes = Vec::with_capacity(len);
    bytes.extend_from_slice(tag);
    push_params(&mut bytes, params);
    for q in queries {
        push_query(&mut bytes, q);
    }
    debug_assert_eq!(bytes.len(), len, "fingerprint scratch sized exactly");
    fingerprint_of(&bytes)
}

/// Bytes [`push_params`] appends: six 8-byte numbers and three
/// NUL-terminated names.
fn params_len(p: &QueryParams) -> usize {
    6 * 8 + 3 + p.estimator.name().len() + p.scorer.name().len() + p.plan.name().len()
}

/// Bytes [`push_query`] appends.
fn query_len(q: &QueryBody) -> usize {
    let rows = q.keys.iter().zip(&q.values);
    16 + q.id.len() + rows.map(|(k, _)| 16 + k.len()).sum::<usize>()
}

fn push_params(bytes: &mut Vec<u8>, p: &QueryParams) {
    bytes.extend_from_slice(&(p.k as u64).to_le_bytes());
    bytes.extend_from_slice(&(p.candidates as u64).to_le_bytes());
    bytes.extend_from_slice(p.estimator.name().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&(p.min_sample as u64).to_le_bytes());
    bytes.extend_from_slice(&p.alpha.to_bits().to_le_bytes());
    bytes.extend_from_slice(p.scorer.name().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&p.confidence.to_bits().to_le_bytes());
    bytes.extend_from_slice(p.plan.name().as_bytes());
    bytes.push(0);
    let plan_confidence = match p.plan {
        PlanMode::Exhaustive => 0.0,
        PlanMode::TwoPass { confidence } => confidence,
    };
    bytes.extend_from_slice(&plan_confidence.to_bits().to_le_bytes());
}

fn push_query(bytes: &mut Vec<u8>, q: &QueryBody) {
    bytes.extend_from_slice(&(q.id.len() as u64).to_le_bytes());
    bytes.extend_from_slice(q.id.as_bytes());
    bytes.extend_from_slice(&(q.keys.len() as u64).to_le_bytes());
    for (k, v) in q.keys.iter().zip(&q.values) {
        bytes.extend_from_slice(&(k.len() as u64).to_le_bytes());
        bytes.extend_from_slice(k.as_bytes());
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn push_result(out: &mut String, r: &ReportedResult) {
    out.push_str("{\"id\":");
    push_string(out, &r.result.id);
    out.push_str(",\"doc\":");
    out.push_str(&r.result.doc.to_string());
    out.push_str(",\"overlap\":");
    out.push_str(&r.result.overlap.to_string());
    out.push_str(",\"sample_size\":");
    out.push_str(&r.result.sample_size.to_string());
    out.push_str(",\"estimate\":");
    match r.result.estimate {
        Some(e) => push_f64(out, e),
        None => out.push_str("null"),
    }
    out.push_str(",\"ci_lo\":");
    match r.result.ci_lo {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
    out.push_str(",\"ci_hi\":");
    match r.result.ci_hi {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
    out.push_str(",\"score\":");
    push_f64(out, r.result.score);
    out.push_str(",\"report\":");
    match &r.report {
        Some(rep) => {
            out.push_str("{\"estimator\":\"");
            out.push_str(rep.estimator.name());
            out.push_str("\",\"estimate\":");
            push_f64(out, rep.estimate);
            out.push_str(",\"sample_size\":");
            out.push_str(&rep.sample_size.to_string());
            out.push_str(",\"hoeffding\":[");
            push_f64(out, rep.hoeffding.low);
            out.push(',');
            push_f64(out, rep.hoeffding.high);
            out.push_str("],\"hfd_length\":");
            push_f64(out, rep.hfd_length);
            out.push_str(",\"fisher_se\":");
            push_f64(out, rep.fisher_se);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
}

fn push_results(out: &mut String, results: &[ReportedResult]) {
    out.push('[');
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_result(out, r);
    }
    out.push(']');
}

/// The shared response preamble: generation plus the resolved ranking
/// parameters (scorer and confidence), so a client can always tell
/// which scorer produced an answer — defaults included.
fn push_preamble(out: &mut String, generation: u64, params: &QueryParams) {
    out.push_str("{\"generation\":");
    out.push_str(&generation.to_string());
    out.push_str(",\"scorer\":\"");
    out.push_str(params.scorer.name());
    out.push_str("\",\"confidence\":");
    push_f64(out, params.confidence);
}

/// Render a `/query` response: deterministic bytes for a given
/// `(results, generation, params)`.
#[must_use]
pub fn render_query_response(
    generation: u64,
    params: &QueryParams,
    results: &[ReportedResult],
) -> String {
    let mut out = String::with_capacity(64 + 256 * results.len());
    push_preamble(&mut out, generation, params);
    out.push_str(",\"count\":");
    out.push_str(&results.len().to_string());
    out.push_str(",\"results\":");
    push_results(&mut out, results);
    out.push('}');
    out
}

/// Render a `/query_batch` response; `answers[i]` answers `queries[i]`.
#[must_use]
pub fn render_batch_response(
    generation: u64,
    params: &QueryParams,
    answers: &[Vec<ReportedResult>],
) -> String {
    let mut out = String::with_capacity(64 + 256 * answers.len());
    push_preamble(&mut out, generation, params);
    out.push_str(",\"count\":");
    out.push_str(&answers.len().to_string());
    out.push_str(",\"answers\":[");
    for (i, results) in answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_results(&mut out, results);
    }
    out.push_str("]}");
    out
}

/// Splice a rendered trace object into a finished response body:
/// `{...}` becomes `{...,"trace":{...}}`.
///
/// The cache only ever stores the *untraced* body, and a traced
/// response is produced by splicing into a copy — so the result payload
/// of a traced answer is byte-identical to the untraced answer for the
/// same request, whether either was a cache hit or a miss.
#[must_use]
pub fn attach_trace(body: &str, trace_json: &str) -> String {
    let mut out = String::with_capacity(body.len() + trace_json.len() + 16);
    match body.strip_suffix('}') {
        Some(head) => {
            out.push_str(head);
            out.push_str(",\"trace\":");
            out.push_str(trace_json);
            out.push('}');
        }
        // Not an object (never happens for our own renders): return the
        // body unchanged rather than corrupt it.
        None => out.push_str(body),
    }
    out
}

/// Render an error payload: `{"error":"..."}`.
#[must_use]
pub fn render_error(message: &str) -> String {
    let mut out = String::with_capacity(16 + message.len());
    out.push_str("{\"error\":");
    push_string(&mut out, message);
    out.push('}');
    out
}

/// Extract a `u64` field from a JSON object body — the tiny client-side
/// helper used by the load harness and smoke tooling to read
/// `generation` out of responses without a full schema.
///
/// # Errors
///
/// A human-readable reason when the body is not JSON or lacks the field.
pub fn extract_u64(body: &str, field: &str) -> Result<u64, String> {
    let value = json::parse(body)?;
    let obj = value.as_object("response").map_err(|e| e.to_string())?;
    obj.get(field)
        .and_then(|v| v.as_u64(field))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// The internal shard wire: coordinator ↔ worker.
//
// Floats cross this boundary as `f64::to_bits()` rendered as decimal
// u64 — bit-exact round-trip for every value, non-finite included,
// which the decimal float writer (`push_f64`, `{v:?}`) cannot encode.
// That is what lets the coordinator's merged response be *byte*-equal
// to a single-process render, and the oracle battery assert it.
// ---------------------------------------------------------------------

fn push_bits(out: &mut String, v: f64) {
    out.push_str(&v.to_bits().to_string());
}

fn bits_field(obj: json::Obj<'_>, field: &str) -> Result<f64, String> {
    Ok(f64::from_bits(
        obj.get(field)
            .and_then(|v| v.as_u64(field))
            .map_err(|e| e.to_string())?,
    ))
}

fn usize_field(obj: json::Obj<'_>, field: &str) -> Result<usize, String> {
    usize::try_from(
        obj.get(field)
            .and_then(|v| v.as_u64(field))
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("{field}: {e}"))
}

/// Render one query body's fields (no braces), canonical form.
fn push_body_fields(out: &mut String, body: &QueryBody) {
    out.push_str("\"id\":");
    push_string(out, &body.id);
    out.push_str(",\"keys\":[");
    for (i, k) in body.keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(out, k);
    }
    out.push_str("],\"values\":[");
    for (i, v) in body.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push(']');
}

/// Render every resolved parameter (no braces, leading comma): the
/// coordinator spells the full parameter set out so the workers'
/// *local* defaults can never influence a scattered query. The plan is
/// forwarded for fingerprint fidelity even though the shard path
/// estimates exhaustively; the estimator travels by name (the same
/// resolution path `/query` clients use).
fn push_param_fields(out: &mut String, p: &QueryParams) {
    out.push_str(",\"k\":");
    out.push_str(&p.k.to_string());
    out.push_str(",\"candidates\":");
    out.push_str(&p.candidates.to_string());
    out.push_str(",\"estimator\":\"");
    out.push_str(p.estimator.name());
    out.push_str("\",\"min_sample\":");
    out.push_str(&p.min_sample.to_string());
    out.push_str(",\"alpha\":");
    push_f64(out, p.alpha);
    out.push_str(",\"scorer\":\"");
    out.push_str(p.scorer.name());
    out.push_str("\",\"confidence\":");
    push_f64(out, p.confidence);
    out.push_str(",\"plan\":\"");
    out.push_str(&p.plan.to_string());
    out.push('"');
}

/// Render the canonical `POST /shard_query` request the coordinator
/// sends each worker. Parses back through [`QueryRequest::parse`] to
/// exactly `(body, params)` on any worker, whatever its defaults.
#[must_use]
pub fn render_shard_query_request(body: &QueryBody, params: &QueryParams) -> String {
    let mut out = String::with_capacity(64 + body.keys.len() * 24);
    out.push('{');
    push_body_fields(&mut out, body);
    push_param_fields(&mut out, params);
    out.push('}');
    out
}

/// Render the canonical `POST /shard_query_batch` request.
#[must_use]
pub fn render_shard_batch_request(queries: &[QueryBody], params: &QueryParams) -> String {
    let mut out = String::with_capacity(64 + queries.len() * 128);
    out.push_str("{\"queries\":[");
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_body_fields(&mut out, q);
        out.push('}');
    }
    out.push(']');
    push_param_fields(&mut out, params);
    out.push('}');
    out
}

/// Render the canonical `POST /shard_reports` request: the query and
/// parameters again (the worker re-derives the join) plus the
/// shard-local doc ids whose reports the merge shipped.
#[must_use]
pub fn render_shard_reports_request(
    body: &QueryBody,
    params: &QueryParams,
    docs: &[DocId],
) -> String {
    let mut out = String::with_capacity(96 + body.keys.len() * 24 + docs.len() * 8);
    out.push('{');
    push_body_fields(&mut out, body);
    push_param_fields(&mut out, params);
    out.push_str(",\"docs\":[");
    for (i, d) in docs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_string());
    }
    out.push_str("]}");
    out
}

/// Extract the `docs` array of a `/shard_reports` request: a walk that
/// skips every other field without decoding it. (The worker itself
/// decodes the request and its `docs` together, in one pass.)
///
/// # Errors
///
/// A human-readable reason, safe to echo in a 400 response.
pub fn extract_docs(body: &[u8]) -> Result<Vec<DocId>, String> {
    let mut docs = None;
    request_fields(body, |r, name| read_docs(&mut docs, r, name))?;
    docs.ok_or_else(|| missing("docs"))
}

fn push_shard_row(out: &mut String, row: &ShardCandidate) {
    out.push_str("{\"doc\":");
    out.push_str(&row.doc.to_string());
    out.push_str(",\"id\":");
    push_string(out, &row.id);
    out.push_str(",\"overlap\":");
    out.push_str(&row.overlap.to_string());
    out.push_str(",\"n\":");
    out.push_str(&row.sample_size.to_string());
    out.push_str(",\"est\":");
    match &row.est {
        Some(e) => {
            out.push_str("{\"e\":");
            push_bits(out, e.estimate);
            out.push_str(",\"lo\":");
            push_bits(out, e.ci_lo);
            out.push_str(",\"hi\":");
            push_bits(out, e.ci_hi);
            out.push_str(",\"n\":");
            out.push_str(&e.sample_size.to_string());
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
}

fn push_shard_rows(out: &mut String, rows: &[ShardCandidate]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_shard_row(out, row);
    }
    out.push(']');
}

/// Render a worker's `/shard_query` response: its generation, live
/// sketch count (the coordinator's doc-offset unit), and candidate
/// rows with bit-encoded estimates.
#[must_use]
pub fn render_shard_query_response(
    generation: u64,
    sketches: usize,
    rows: &[ShardCandidate],
) -> String {
    let mut out = String::with_capacity(64 + 128 * rows.len());
    out.push_str("{\"generation\":");
    out.push_str(&generation.to_string());
    out.push_str(",\"sketches\":");
    out.push_str(&sketches.to_string());
    out.push_str(",\"rows\":");
    push_shard_rows(&mut out, rows);
    out.push('}');
    out
}

/// Render a worker's `/shard_query_batch` response: one row list per
/// query, all from one snapshot.
#[must_use]
pub fn render_shard_batch_response(
    generation: u64,
    sketches: usize,
    queries: &[Vec<ShardCandidate>],
) -> String {
    let mut out = String::with_capacity(64 + queries.iter().map(|q| 128 * q.len()).sum::<usize>());
    out.push_str("{\"generation\":");
    out.push_str(&generation.to_string());
    out.push_str(",\"sketches\":");
    out.push_str(&sketches.to_string());
    out.push_str(",\"queries\":[");
    for (i, rows) in queries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_shard_rows(&mut out, rows);
    }
    out.push_str("]}");
    out
}

/// A worker's parsed `/shard_query` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQueryResponse {
    /// Worker store generation the rows were computed against.
    pub generation: u64,
    /// The worker's live sketch count (its doc-id space).
    pub sketches: usize,
    /// Shard-local candidate rows, in retrieval order.
    pub rows: Vec<ShardCandidate>,
}

/// A worker's parsed `/shard_query_batch` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBatchResponse {
    /// Worker store generation the rows were computed against.
    pub generation: u64,
    /// The worker's live sketch count.
    pub sketches: usize,
    /// One candidate-row list per query, in request order.
    pub queries: Vec<Vec<ShardCandidate>>,
}

fn parse_shard_row(v: &json::Value) -> Result<ShardCandidate, String> {
    let obj = v.as_object("rows[]").map_err(|e| e.to_string())?;
    let est = match obj.get("est").map_err(|e| e.to_string())? {
        json::Value::Null => None,
        est => {
            let eo = est.as_object("est").map_err(|e| e.to_string())?;
            Some(ScoredEstimate {
                estimate: bits_field(eo, "e")?,
                ci_lo: bits_field(eo, "lo")?,
                ci_hi: bits_field(eo, "hi")?,
                sample_size: usize_field(eo, "n")?,
            })
        }
    };
    Ok(ShardCandidate {
        doc: DocId::try_from(
            obj.get("doc")
                .and_then(|v| v.as_u64("doc"))
                .map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("doc: {e}"))?,
        id: obj
            .get("id")
            .and_then(|v| v.as_str("id"))
            .map_err(|e| e.to_string())?
            .to_string(),
        overlap: usize_field(obj, "overlap")?,
        sample_size: usize_field(obj, "n")?,
        est,
    })
}

fn parse_shard_rows(v: &json::Value) -> Result<Vec<ShardCandidate>, String> {
    v.as_array("rows")
        .map_err(|e| e.to_string())?
        .iter()
        .map(parse_shard_row)
        .collect()
}

/// Parse a `/shard_query` response body.
///
/// # Errors
///
/// A human-readable reason (malformed worker reply).
pub fn parse_shard_query_response(body: &str) -> Result<ShardQueryResponse, String> {
    let value = json::parse(body)?;
    let obj = value.as_object("response").map_err(|e| e.to_string())?;
    Ok(ShardQueryResponse {
        generation: obj
            .get("generation")
            .and_then(|v| v.as_u64("generation"))
            .map_err(|e| e.to_string())?,
        sketches: usize_field(obj, "sketches")?,
        rows: parse_shard_rows(obj.get("rows").map_err(|e| e.to_string())?)?,
    })
}

/// Parse a `/shard_query_batch` response body.
///
/// # Errors
///
/// A human-readable reason (malformed worker reply).
pub fn parse_shard_batch_response(body: &str) -> Result<ShardBatchResponse, String> {
    let value = json::parse(body)?;
    let obj = value.as_object("response").map_err(|e| e.to_string())?;
    Ok(ShardBatchResponse {
        generation: obj
            .get("generation")
            .and_then(|v| v.as_u64("generation"))
            .map_err(|e| e.to_string())?,
        sketches: usize_field(obj, "sketches")?,
        queries: obj
            .get("queries")
            .and_then(|v| v.as_array("queries"))
            .map_err(|e| e.to_string())?
            .iter()
            .map(parse_shard_rows)
            .collect::<Result<_, _>>()?,
    })
}

/// Render a worker's `/shard_reports` response: one report (or null)
/// per requested doc, in request order, floats bit-encoded.
#[must_use]
pub fn render_shard_reports_response(
    generation: u64,
    reports: &[Option<EstimateReport>],
) -> String {
    let mut out = String::with_capacity(64 + 128 * reports.len());
    out.push_str("{\"generation\":");
    out.push_str(&generation.to_string());
    out.push_str(",\"reports\":[");
    for (i, rep) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match rep {
            Some(r) => {
                out.push_str("{\"e\":");
                push_bits(&mut out, r.estimate);
                out.push_str(",\"n\":");
                out.push_str(&r.sample_size.to_string());
                out.push_str(",\"lo\":");
                push_bits(&mut out, r.hoeffding.low);
                out.push_str(",\"hi\":");
                push_bits(&mut out, r.hoeffding.high);
                out.push_str(",\"hfd\":");
                push_bits(&mut out, r.hfd_length);
                out.push_str(",\"se\":");
                push_bits(&mut out, r.fisher_se);
                out.push('}');
            }
            None => out.push_str("null"),
        }
    }
    out.push_str("]}");
    out
}

/// A worker's parsed `/shard_reports` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReportsResponse {
    /// Worker store generation the reports were computed against.
    pub generation: u64,
    /// One report (or `None`) per requested doc, in request order.
    pub reports: Vec<Option<EstimateReport>>,
}

/// Parse a `/shard_reports` response body. The estimator is not on the
/// wire (it is pinned by the request parameters the coordinator sent),
/// so the caller passes it back in to reconstruct full
/// [`EstimateReport`] values.
///
/// # Errors
///
/// A human-readable reason (malformed worker reply).
pub fn parse_shard_reports_response(
    body: &str,
    estimator: CorrelationEstimator,
) -> Result<ShardReportsResponse, String> {
    let value = json::parse(body)?;
    let obj = value.as_object("response").map_err(|e| e.to_string())?;
    let reports = obj
        .get("reports")
        .and_then(|v| v.as_array("reports"))
        .map_err(|e| e.to_string())?
        .iter()
        .map(|v| match v {
            json::Value::Null => Ok(None),
            rep => {
                let ro = rep.as_object("reports[]").map_err(|e| e.to_string())?;
                Ok(Some(EstimateReport {
                    estimate: bits_field(ro, "e")?,
                    estimator,
                    sample_size: usize_field(ro, "n")?,
                    hoeffding: ConfidenceInterval {
                        low: bits_field(ro, "lo")?,
                        high: bits_field(ro, "hi")?,
                    },
                    hfd_length: bits_field(ro, "hfd")?,
                    fisher_se: bits_field(ro, "se")?,
                }))
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(ShardReportsResponse {
        generation: obj
            .get("generation")
            .and_then(|v| v.as_u64("generation"))
            .map_err(|e| e.to_string())?,
        reports,
    })
}

// ---------------------------------------------------------------------
// The coordinator's public responses.
// ---------------------------------------------------------------------

/// One shard's state as reported in a coordinator response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardState {
    /// The shard's store generation: the generation its rows were
    /// computed against, or (for a degraded shard) the last generation
    /// the coordinator observed before the worker stopped answering.
    pub generation: u64,
    /// Whether the shard failed to answer this request — its
    /// candidates are missing from the merged results.
    pub degraded: bool,
}

/// Hash a shard-generation vector `(generation, sketches)` per shard
/// into the coordinator's cache key. Length-prefixed so vectors like
/// `[(1,n),(0,m)]` and `[(0,n),(1,m)]` (or differing worker counts)
/// can never alias — a mixed-generation response must never be served
/// for a different mixture.
#[must_use]
pub fn generation_hash(shards: &[(u64, u64)]) -> u64 {
    let mut bytes = Vec::with_capacity(8 + shards.len() * 16);
    bytes.extend_from_slice(b"gens\x00");
    bytes.extend_from_slice(&(shards.len() as u64).to_le_bytes());
    for (generation, sketches) in shards {
        bytes.extend_from_slice(&generation.to_le_bytes());
        bytes.extend_from_slice(&sketches.to_le_bytes());
    }
    murmur3_x64_128(&bytes, FINGERPRINT_SEED).0
}

/// The coordinator preamble: per-shard generations, the typed
/// `degraded` list (always present; empty when every shard answered),
/// and the resolved scorer/confidence — the sharded analogue of the
/// single-server preamble.
fn push_coordinator_preamble(out: &mut String, shards: &[ShardState], params: &QueryParams) {
    out.push_str("{\"generations\":[");
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.generation.to_string());
    }
    out.push_str("],\"degraded\":[");
    let mut first = true;
    for (i, s) in shards.iter().enumerate() {
        if s.degraded {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"shard\":");
            out.push_str(&i.to_string());
            out.push_str(",\"generation\":");
            out.push_str(&s.generation.to_string());
            out.push('}');
        }
    }
    out.push_str("],\"scorer\":\"");
    out.push_str(params.scorer.name());
    out.push_str("\",\"confidence\":");
    push_f64(out, params.confidence);
}

/// Render a coordinator `/query` response. The `results` array is
/// rendered by the same writer as the single-server response, so a
/// healthy coordinator answer's results bytes are directly comparable
/// to (and, by the merge guarantee, identical to) a single-process
/// answer over the union corpus.
#[must_use]
pub fn render_coordinator_response(
    shards: &[ShardState],
    params: &QueryParams,
    merged: usize,
    shipped: usize,
    results: &[ReportedResult],
) -> String {
    let mut out = String::with_capacity(128 + 256 * results.len());
    push_coordinator_preamble(&mut out, shards, params);
    out.push_str(",\"merged\":");
    out.push_str(&merged.to_string());
    out.push_str(",\"shipped\":");
    out.push_str(&shipped.to_string());
    out.push_str(",\"count\":");
    out.push_str(&results.len().to_string());
    out.push_str(",\"results\":");
    push_results(&mut out, results);
    out.push('}');
    out
}

/// Render a coordinator `/query_batch` response; `answers[i]`,
/// `merged[i]`, `shipped[i]` describe `queries[i]`.
#[must_use]
pub fn render_coordinator_batch_response(
    shards: &[ShardState],
    params: &QueryParams,
    merged: &[usize],
    shipped: &[usize],
    answers: &[Vec<ReportedResult>],
) -> String {
    let mut out = String::with_capacity(128 + 256 * answers.len());
    push_coordinator_preamble(&mut out, shards, params);
    out.push_str(",\"merged\":[");
    for (i, m) in merged.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&m.to_string());
    }
    out.push_str("],\"shipped\":[");
    for (i, s) in shipped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_string());
    }
    out.push_str("],\"count\":");
    out.push_str(&answers.len().to_string());
    out.push_str(",\"answers\":[");
    for (i, results) in answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_results(&mut out, results);
    }
    out.push_str("]}");
    out
}

/// Does this parsed response value look like `{"error": ...}`?
#[must_use]
pub fn is_error_body(body: &str) -> bool {
    json::parse(body)
        .ok()
        .and_then(|v| {
            v.as_object("response")
                .ok()
                .map(|o| o.opt("error").is_some())
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> QueryParams {
        QueryParams::default()
    }

    #[test]
    fn parses_minimal_query_with_defaults() {
        let req =
            QueryRequest::parse(br#"{"keys":["a","b"],"values":[1.0,2.5]}"#, &defaults()).unwrap();
        assert_eq!(req.body.id, "query");
        assert_eq!(req.body.keys, vec!["a", "b"]);
        assert_eq!(req.body.values, vec![1.0, 2.5]);
        assert_eq!(req.params, defaults());
        let opts = req.params.to_options();
        assert_eq!(opts.k, 10);
        assert_eq!(opts.overlap_candidates, 100);
        assert_eq!(opts.threads, 1);
    }

    #[test]
    fn parses_full_query_overrides() {
        let req = QueryRequest::parse(
            br#"{"id":"taxi","keys":["a"],"values":[1],"k":3,"candidates":7,
                 "estimator":"spearman","min_sample":5,"alpha":0.1,
                 "scorer":"s4","confidence":0.9,"plan":"two-pass@0.995"}"#,
            &defaults(),
        )
        .unwrap();
        assert_eq!(req.body.id, "taxi");
        assert_eq!(req.params.k, 3);
        assert_eq!(req.params.candidates, 7);
        assert_eq!(req.params.estimator.name(), "spearman");
        assert_eq!(req.params.min_sample, 5);
        assert_eq!(req.params.alpha, 0.1);
        assert_eq!(req.params.scorer, Scorer::S4);
        assert_eq!(req.params.confidence, 0.9);
        assert_eq!(req.params.plan, PlanMode::TwoPass { confidence: 0.995 });
        assert_eq!(req.params.to_options().plan, req.params.plan);
        // Paper-notation aliases resolve to the same scorer.
        let req = QueryRequest::parse(
            br#"{"keys":["a"],"values":[1],"scorer":"rp*cih"}"#,
            &defaults(),
        )
        .unwrap();
        assert_eq!(req.params.scorer, Scorer::S4);
    }

    #[test]
    fn rejects_malformed_queries_with_reasons() {
        for (body, needle) in [
            (&br#"{"values":[1]}"#[..], "keys"),
            (br#"{"keys":["a"],"values":[]}"#, "equal length"),
            (br#"{"keys":[],"values":[]}"#, "non-empty"),
            (br#"{"keys":["a"],"values":[1],"alpha":2}"#, "alpha"),
            (
                br#"{"keys":["a"],"values":[1],"estimator":"psychic"}"#,
                "estimator",
            ),
            (br#"{"keys":["a"],"values":[1],"scorer":"s9"}"#, "scorer"),
            (
                br#"{"keys":["a"],"values":[1],"confidence":1.5}"#,
                "confidence",
            ),
            (
                br#"{"keys":["a"],"values":[1],"confidence":0}"#,
                "confidence",
            ),
            (br#"{"keys":["a"],"values":[1],"plan":"psychic"}"#, "plan"),
            (
                br#"{"keys":["a"],"values":[1],"plan":"two-pass@1.5"}"#,
                "plan",
            ),
            (br#"not json"#, "unexpected"),
            (br#"[1,2]"#, "object"),
            // Absurd selection sizes must be rejected at the boundary,
            // not turned into enormous allocations downstream.
            (
                br#"{"keys":["a"],"values":[1],"k":1099511627776}"#,
                "k must be <=",
            ),
            (
                br#"{"keys":["a"],"values":[1],"candidates":1099511627776}"#,
                "candidates must be <=",
            ),
        ] {
            let err = QueryRequest::parse(body, &defaults()).unwrap_err();
            assert!(
                err.contains(needle),
                "body {:?}: error {err:?} should mention {needle:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn fingerprint_ignores_field_order_and_spelled_defaults() {
        let a = QueryRequest::parse(br#"{"keys":["a"],"values":[1.5]}"#, &defaults()).unwrap();
        let b = QueryRequest::parse(
            br#"{ "values" : [1.5], "k":10, "keys" : ["a"], "id":"query" }"#,
            &defaults(),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// Fingerprints key the response cache and show up in logs, so no
    /// change to how a request is decoded or hashed may move them. The
    /// constants are what the tree-walking decoder computed (the commit
    /// before the one-pass reader) for a single request, a batch, and a
    /// re-ordered body that spells out every default.
    #[test]
    fn fingerprints_are_pinned() {
        let single = r#"{"id":"taxi","keys":["a","b","café"],"values":[1.5,-2.25,1e3],"k":3,"estimator":"spearman"}"#;
        let batch = r#"{"queries":[{"keys":["a"],"values":[1]},{"id":"q2","keys":["b","😀"],"values":[2,-0]}],"scorer":"s4","plan":"two-pass@0.995"}"#;
        let spelled = r#"{ "plan":"exhaustive", "values":[1.5,-2.25,1e3], "confidence":0.95, "scorer":"s1", "alpha":0.05, "min_sample":3, "estimator":"pearson", "candidates":100, "k":10, "keys":["a","b","café"], "id":"query", "trace":true }"#;
        let minimal = r#"{"keys":["a","b","café"],"values":[1.5,-2.25,1e3]}"#;
        let query = |body: &str| {
            QueryRequest::parse(body.as_bytes(), &defaults())
                .unwrap()
                .fingerprint()
        };
        assert_eq!(query(single), 0x77d7_e383_4b8f_1ad5_d4f8_6a05_c085_6d88);
        assert_eq!(query(spelled), 0x79a9_c276_ab82_cc96_32ba_d19d_a132_63a4);
        assert_eq!(query(minimal), query(spelled));
        let batch = BatchRequest::parse(batch.as_bytes(), &defaults()).unwrap();
        assert_eq!(
            batch.fingerprint(),
            0x243f_90b1_1c1c_fb00_525f_a535_c9d2_e7a8
        );
    }

    #[test]
    fn fingerprint_distinguishes_every_dimension() {
        let base = QueryRequest::parse(br#"{"keys":["a"],"values":[1.5]}"#, &defaults()).unwrap();
        for other in [
            &br#"{"keys":["b"],"values":[1.5]}"#[..],
            br#"{"keys":["a"],"values":[2.5]}"#,
            br#"{"keys":["a"],"values":[1.5],"k":9}"#,
            br#"{"keys":["a"],"values":[1.5],"candidates":99}"#,
            br#"{"keys":["a"],"values":[1.5],"estimator":"spearman"}"#,
            br#"{"keys":["a"],"values":[1.5],"min_sample":4}"#,
            br#"{"keys":["a"],"values":[1.5],"alpha":0.01}"#,
            br#"{"keys":["a"],"values":[1.5],"scorer":"s2"}"#,
            br#"{"keys":["a"],"values":[1.5],"confidence":0.8}"#,
            br#"{"keys":["a"],"values":[1.5],"plan":"two-pass"}"#,
            br#"{"keys":["a"],"values":[1.5],"id":"other"}"#,
        ] {
            let req = QueryRequest::parse(other, &defaults()).unwrap();
            assert_ne!(
                base.fingerprint(),
                req.fingerprint(),
                "{}",
                String::from_utf8_lossy(other)
            );
        }
        // Two two-pass plans differing only in pruning confidence must
        // not share a cache entry either.
        let tp99 = QueryRequest::parse(
            br#"{"keys":["a"],"values":[1.5],"plan":"two-pass@0.99"}"#,
            &defaults(),
        )
        .unwrap();
        let tp95 = QueryRequest::parse(
            br#"{"keys":["a"],"values":[1.5],"plan":"two-pass@0.95"}"#,
            &defaults(),
        )
        .unwrap();
        assert_ne!(tp99.fingerprint(), tp95.fingerprint());
    }

    #[test]
    fn fingerprint_is_injection_safe_across_key_boundaries() {
        // ["ab","c"] vs ["a","bc"] must not collide (length-prefixed).
        let a = QueryRequest::parse(br#"{"keys":["ab","c"],"values":[1,2]}"#, &defaults()).unwrap();
        let b = QueryRequest::parse(br#"{"keys":["a","bc"],"values":[1,2]}"#, &defaults()).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn trace_flag_parses_but_never_touches_the_fingerprint() {
        let plain = QueryRequest::parse(br#"{"keys":["a"],"values":[1]}"#, &defaults()).unwrap();
        assert!(!plain.trace);
        let traced =
            QueryRequest::parse(br#"{"keys":["a"],"values":[1],"trace":true}"#, &defaults())
                .unwrap();
        assert!(traced.trace);
        // Same cached answer serves both spellings.
        assert_eq!(plain.fingerprint(), traced.fingerprint());
        assert!(
            QueryRequest::parse(br#"{"keys":["a"],"values":[1],"trace":"yes"}"#, &defaults())
                .is_err()
        );
        let batch = BatchRequest::parse(
            br#"{"queries":[{"keys":["a"],"values":[1]}],"trace":true}"#,
            &defaults(),
        )
        .unwrap();
        assert!(batch.trace);
        let plain_batch =
            BatchRequest::parse(br#"{"queries":[{"keys":["a"],"values":[1]}]}"#, &defaults())
                .unwrap();
        assert_eq!(batch.fingerprint(), plain_batch.fingerprint());
    }

    #[test]
    fn attach_trace_splices_before_the_closing_brace() {
        let body = "{\"generation\":3,\"results\":[]}";
        let traced = attach_trace(body, "{\"total_us\":7,\"spans\":[]}");
        assert_eq!(
            traced,
            "{\"generation\":3,\"results\":[],\"trace\":{\"total_us\":7,\"spans\":[]}}"
        );
        // Still valid JSON with the original fields intact.
        let v = json::parse(&traced).unwrap();
        let obj = v.as_object("r").unwrap();
        assert_eq!(obj.get("generation").unwrap().as_u64("g").unwrap(), 3);
        assert!(obj.opt("trace").is_some());
        // Stripping the spliced suffix recovers the original bytes.
        let suffix = ",\"trace\":{\"total_us\":7,\"spans\":[]}}";
        assert_eq!(
            traced.strip_suffix(suffix).unwrap(),
            body.strip_suffix('}').unwrap()
        );
    }

    #[test]
    fn batch_parses_and_fingerprints() {
        let batch = BatchRequest::parse(
            br#"{"queries":[{"keys":["a"],"values":[1]},{"id":"q2","keys":["b"],"values":[2]}],"k":5}"#,
            &defaults(),
        )
        .unwrap();
        assert_eq!(batch.queries.len(), 2);
        assert_eq!(batch.params.k, 5);
        assert_eq!(batch.queries[1].id, "q2");

        let reordered = BatchRequest::parse(
            br#"{"queries":[{"id":"q2","keys":["b"],"values":[2]},{"keys":["a"],"values":[1]}],"k":5}"#,
            &defaults(),
        )
        .unwrap();
        assert_ne!(batch.fingerprint(), reordered.fingerprint());

        assert!(BatchRequest::parse(br#"{"queries":[]}"#, &defaults()).is_err());
        let err = BatchRequest::parse(br#"{"queries":[{"keys":["a"]}]}"#, &defaults()).unwrap_err();
        assert!(err.contains("queries[0]"), "{err}");
    }

    #[test]
    fn batch_and_single_fingerprints_never_collide() {
        let single = QueryRequest::parse(br#"{"keys":["a"],"values":[1]}"#, &defaults()).unwrap();
        let batch =
            BatchRequest::parse(br#"{"queries":[{"keys":["a"],"values":[1]}]}"#, &defaults())
                .unwrap();
        assert_ne!(single.fingerprint(), batch.fingerprint());
    }

    #[test]
    fn error_rendering_escapes_and_parses() {
        let body = render_error("bad \"thing\"\nhappened");
        assert!(is_error_body(&body));
        assert!(!is_error_body("{\"ok\":1}"));
        let v = json::parse(&body).unwrap();
        assert_eq!(
            v.as_object("e")
                .unwrap()
                .get("error")
                .unwrap()
                .as_str("m")
                .unwrap(),
            "bad \"thing\"\nhappened"
        );
    }

    #[test]
    fn shard_row_wire_roundtrips_bit_exactly() {
        let rows = vec![
            ShardCandidate {
                doc: 7,
                id: "t/k/v".into(),
                overlap: 31,
                sample_size: 12,
                est: Some(ScoredEstimate {
                    estimate: -0.0,
                    ci_lo: f64::from_bits(0x0000_0000_0000_0001), // subnormal
                    ci_hi: 0.123_456_789_012_345_67,
                    sample_size: 12,
                }),
            },
            ShardCandidate {
                doc: 0,
                id: "weird \"id\"\n".into(),
                overlap: 2,
                sample_size: 2,
                est: None,
            },
        ];
        let body = render_shard_query_response(5, 1000, &rows);
        let parsed = parse_shard_query_response(&body).unwrap();
        assert_eq!(parsed.generation, 5);
        assert_eq!(parsed.sketches, 1000);
        assert_eq!(parsed.rows, rows);
        // -0.0 must survive as -0.0 (PartialEq can't see the sign).
        assert_eq!(
            parsed.rows[0].est.unwrap().estimate.to_bits(),
            (-0.0f64).to_bits()
        );

        // Non-finite values — which the decimal float writer cannot
        // encode at all — cross the bits wire exactly.
        let odd = vec![ShardCandidate {
            doc: 1,
            id: "x".into(),
            overlap: 1,
            sample_size: 4,
            est: Some(ScoredEstimate {
                estimate: f64::NAN,
                ci_lo: f64::NEG_INFINITY,
                ci_hi: f64::INFINITY,
                sample_size: 4,
            }),
        }];
        let parsed = parse_shard_query_response(&render_shard_query_response(0, 1, &odd)).unwrap();
        let est = parsed.rows[0].est.unwrap();
        assert_eq!(est.estimate.to_bits(), f64::NAN.to_bits());
        assert_eq!(est.ci_lo, f64::NEG_INFINITY);
        assert_eq!(est.ci_hi, f64::INFINITY);

        let batch = render_shard_batch_response(3, 50, &[rows.clone(), vec![]]);
        let parsed = parse_shard_batch_response(&batch).unwrap();
        assert_eq!(parsed.queries, vec![rows, vec![]]);
    }

    #[test]
    fn canonical_shard_request_overrides_any_worker_defaults() {
        // A coordinator resolved these params against ITS defaults; the
        // rendered request must reparse to the same params on a worker
        // configured with completely different defaults.
        let req = QueryRequest::parse(
            br#"{"id":"q","keys":["a","b"],"values":[1.5,-2.25],
                 "k":3,"estimator":"spearman","scorer":"s3","plan":"two-pass@0.995"}"#,
            &defaults(),
        )
        .unwrap();
        let wire = render_shard_query_request(&req.body, &req.params);
        let hostile_defaults = QueryParams {
            k: 1,
            candidates: 7,
            estimator: CorrelationEstimator::Qn,
            min_sample: 9,
            alpha: 0.2,
            scorer: Scorer::S4,
            confidence: 0.5,
            plan: PlanMode::two_pass(),
        };
        let reparsed = QueryRequest::parse(wire.as_bytes(), &hostile_defaults).unwrap();
        assert_eq!(reparsed, req);
        assert_eq!(reparsed.fingerprint(), req.fingerprint());

        // Same for the batch and reports forms.
        let batch = BatchRequest {
            queries: vec![req.body.clone(), req.body.clone()],
            params: req.params,
            trace: false,
        };
        let wire = render_shard_batch_request(&batch.queries, &batch.params);
        let reparsed = BatchRequest::parse(wire.as_bytes(), &hostile_defaults).unwrap();
        assert_eq!(reparsed, batch);

        let wire = render_shard_reports_request(&req.body, &req.params, &[4, 0, 9]);
        let reparsed = QueryRequest::parse(wire.as_bytes(), &hostile_defaults).unwrap();
        assert_eq!(reparsed, req);
        assert_eq!(extract_docs(wire.as_bytes()).unwrap(), vec![4, 0, 9]);
    }

    #[test]
    fn shard_reports_roundtrip_reconstructs_reports() {
        let reports = vec![
            Some(EstimateReport {
                estimate: 0.875,
                estimator: CorrelationEstimator::Spearman,
                sample_size: 40,
                hoeffding: ConfidenceInterval {
                    low: -1.0,
                    high: 0.999,
                },
                hfd_length: 2.5,
                fisher_se: 0.164,
            }),
            None,
        ];
        let body = render_shard_reports_response(9, &reports);
        let parsed = parse_shard_reports_response(&body, CorrelationEstimator::Spearman).unwrap();
        assert_eq!(parsed.generation, 9);
        assert_eq!(parsed.reports, reports);
    }

    #[test]
    fn generation_hash_never_aliases_mixtures() {
        // The anti-alias battery: permuted generation vectors, split
        // shifts at equal totals, and length tricks must all differ.
        let base = generation_hash(&[(1, 10), (0, 10)]);
        for other in [
            &[(0u64, 10u64), (1, 10)][..],
            &[(1, 10), (0, 10), (0, 0)],
            &[(1, 20), (0, 0)],
            &[(1, 10)],
            &[(2, 10), (0, 10)],
            &[(1, 11), (0, 9)],
        ] {
            assert_ne!(base, generation_hash(other), "{other:?}");
        }
        // Stable across calls (it keys a cache).
        assert_eq!(base, generation_hash(&[(1, 10), (0, 10)]));
    }

    #[test]
    fn coordinator_render_carries_typed_degraded_entries() {
        let shards = [
            ShardState {
                generation: 4,
                degraded: false,
            },
            ShardState {
                generation: 7,
                degraded: true,
            },
        ];
        let body = render_coordinator_response(&shards, &defaults(), 12, 5, &[]);
        let v = json::parse(&body).unwrap();
        let obj = v.as_object("resp").unwrap();
        let gens = obj.get("generations").unwrap().as_array("g").unwrap();
        assert_eq!(gens.len(), 2);
        let degraded = obj.get("degraded").unwrap().as_array("d").unwrap();
        assert_eq!(degraded.len(), 1);
        let d0 = degraded[0].as_object("d0").unwrap();
        assert_eq!(d0.get("shard").unwrap().as_u64("s").unwrap(), 1);
        assert_eq!(d0.get("generation").unwrap().as_u64("g").unwrap(), 7);
        assert_eq!(obj.get("merged").unwrap().as_u64("m").unwrap(), 12);
        assert_eq!(obj.get("shipped").unwrap().as_u64("s").unwrap(), 5);
        // Healthy responses still carry the (empty) degraded field —
        // the absence of degradation is explicit, not implied.
        let healthy = render_coordinator_response(
            &[ShardState {
                generation: 4,
                degraded: false,
            }],
            &defaults(),
            3,
            3,
            &[],
        );
        assert!(healthy.contains("\"degraded\":[]"), "{healthy}");
    }

    #[test]
    fn extract_u64_reads_generation() {
        assert_eq!(
            extract_u64("{\"generation\":42,\"x\":[]}", "generation").unwrap(),
            42
        );
        assert!(extract_u64("[]", "generation").is_err());
        assert!(extract_u64("{\"a\":1}", "generation").is_err());
    }
}
