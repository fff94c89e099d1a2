//! `tclose` — command-line anonymizer for CSV microdata.
//!
//! ```text
//! tclose generate  --dataset census-mcd|census-hcd|patient|pii --output FILE
//!                  [--seed N] [--n N]
//! tclose scan      --input FILE [--compliance CONFIG.toml] [--json]
//! tclose anonymize --input FILE --output FILE --qi COLS --confidential COLS
//!                  --k N --t F [--algorithm alg1|alg2|alg3]
//!                  [--workers N] [--backend auto|flat|kdtree|hybrid]
//!                  [--stream] [--shard-size N]
//!                  [--compliance CONFIG.toml] [--dry-run]
//! tclose fit       --input FILE --out MODEL --qi COLS --confidential COLS
//!                  --k N --t F [--algorithm alg1|alg2|alg3]
//!                  [--normalize zscore|minmax|none] [--stream] [--shard-size N]
//!                  [--compliance CONFIG.toml]
//! tclose apply     --model MODEL --input FILE --output FILE
//!                  [--workers N] [--backend auto|flat|kdtree|hybrid]
//!                  [--stream] [--shard-size N] [--compliance CONFIG.toml]
//! tclose model     inspect MODEL
//! tclose audit     --input FILE --qi COLS --confidential COLS [--t F] [--workers N]
//! tclose serve     --registry DIR [--addr HOST:PORT] [--addr-file FILE]
//!                  [--workers N] [--backend B] [--queue N]
//!                  [--timeout-ms N] [--drain-timeout-ms N]
//! tclose request   --addr HOST:PORT [--op ping|list|anonymize|audit|shutdown]
//!                  [--model ID] [--input FILE] [--output FILE]
//! ```
//!
//! `COLS` are comma-separated column names. `anonymize` releases a
//! k-anonymous t-close version of the input (quasi-identifiers replaced by
//! cluster centroids, confidential columns untouched) and prints an audit
//! report; `audit` re-checks any released file independently.
//!
//! `fit` runs only the global fit pass and freezes the result into a
//! versioned JSON **model artifact** (`tclose-core`'s `ModelArtifact`):
//! schema, embedding parameters, global confidential distributions, and an
//! environment fingerprint. `apply` loads such an artifact and anonymizes a
//! file against it, skipping the fit pass entirely — byte-identical to the
//! fused `anonymize` run that would have fitted the same file. `model
//! inspect` prints an artifact's provenance without touching any data.
//!
//! `--stream` switches to the two-pass sharded engine (`tclose-stream`):
//! pass 1 accumulates the global fit in bounded memory, pass 2 anonymizes
//! shards of `--shard-size` records in parallel and appends them to the
//! output in input order. `--workers` pins the thread count end-to-end;
//! output is identical for any value. `--backend` selects the
//! neighbor-search backend of the clustering hot path: `auto`, `flat`,
//! and `kdtree` are exact (the release never depends on the choice —
//! `auto` picks per record set), while `hybrid` opts into *approximate*
//! MDAV-family partitioning for million-row speed; it remains
//! deterministic and every release still passes the t-closeness audit,
//! but the clustering may differ from the exact one.
//!
//! `--compliance` mounts the identifier-column compliance layer
//! (`tclose-compliance`): the TOML policy names a rule profile
//! (HIPAA/GDPR/custom), a transform strategy (redact / tokenize / hash),
//! and optional column drops. `scan` reports what would be transformed
//! without writing anything; `anonymize --compliance` scrubs matching
//! cells *before* clustering and can write a hashed audit log (one JSON
//! line per transformed cell, never plaintext); `--dry-run` previews the
//! scrub. `fit --compliance` binds the model to the policy fingerprint,
//! and `apply` refuses to run under a different policy (or none).
//!
//! The three `--algorithm` choices are Algorithms 1–3 of the source paper
//! (Soria-Comas et al., ICDE 2016): microaggregation + merging,
//! k-anonymity-first refinement, and t-closeness-first stratification.

#![forbid(unsafe_code)]

mod args;
mod commands;
mod serve;

use std::process::ExitCode;

const HELP: &str = "tclose — k-anonymous t-closeness through microaggregation

usage:
  tclose generate  --dataset census-mcd|census-hcd|patient|pii --output FILE [--seed N] [--n N]
  tclose scan      --input FILE [--compliance CONFIG.toml] [--json]
  tclose anonymize --input FILE --output FILE --qi COLS --confidential COLS \\
                   --k N --t F [--algorithm alg1|alg2|alg3] \\
                   [--workers N] [--backend auto|flat|kdtree|hybrid] \\
                   [--stream] [--shard-size N] \\
                   [--compliance CONFIG.toml] [--dry-run]
  tclose fit       --input FILE --out MODEL.json --qi COLS --confidential COLS \\
                   --k N --t F [--algorithm alg1|alg2|alg3] \\
                   [--normalize zscore|minmax|none] [--stream] [--shard-size N] \\
                   [--compliance CONFIG.toml]
  tclose apply     --model MODEL.json --input FILE --output FILE \\
                   [--workers N] [--backend auto|flat|kdtree|hybrid] \\
                   [--stream] [--shard-size N] [--compliance CONFIG.toml]
  tclose model     inspect MODEL.json
  tclose audit     --input FILE --qi COLS --confidential COLS [--t F] [--workers N]
  tclose serve     --registry DIR [--addr HOST:PORT] [--addr-file FILE] \\
                   [--workers N] [--backend auto|flat|kdtree|hybrid] \\
                   [--queue N] [--timeout-ms N] [--drain-timeout-ms N]
  tclose request   --addr HOST:PORT [--op ping|list|anonymize|audit|shutdown] \\
                   [--model ID] [--input FILE] [--output FILE]

algorithms:
  alg1  microaggregation + merging          (guaranteed t-close)
  alg2  k-anonymity-first refinement        (guaranteed via merge fallback)
  alg3  t-closeness-first stratification    (guaranteed by construction; default)

scaling:
  --workers N     pin the thread count (default: one per core; output identical)
  --backend B     neighbor search: auto|flat|kdtree are exact (identical
                  output; auto picks per record set); hybrid is the
                  approximate opt-in for million-row speed (deterministic,
                  audited t-closeness, but a different clustering)
  --stream        two-pass sharded engine: bounded memory, any file size
  --shard-size N  records per shard in --stream mode (default 10000)

serving:
  tclose serve keeps a directory of fitted model artifacts resident and
  answers anonymize/audit requests over a length-prefixed socket
  protocol — no per-request process startup or model load. The registry
  hot-reloads artifacts on change (corrupt files are rejected without
  dropping healthy models), concurrent requests are batched through the
  shard workers, a bounded queue answers \"busy\" under overload, and
  shutdown drains every accepted request (nonzero exit if the drain
  times out). tclose request is the matching one-shot client.

compliance:
  --compliance CONFIG.toml mounts the identifier-column compliance layer:
  a [compliance] profile (hipaa|gdpr|custom) of detection rules (SSNs,
  emails, phones, MRNs, names, …), a transform strategy (redact |
  tokenize | hash), and optional drop_columns removed from the release.
  Matching cells are scrubbed BEFORE clustering; the scrub is a pure
  per-cell function, so streamed and monolithic runs agree byte for
  byte. tclose scan previews the hit counts; --dry-run previews a run
  without writing anything; audit_path writes one salted-hash JSON line
  per transformed cell (never plaintext). TCLOSE_COMPLIANCE_* variables
  override the file (PROFILE, STRATEGY, KEY, DRY_RUN, DISABLE, AUDIT,
  AUDIT_PATH, SALT). fit --compliance binds the model to the policy
  fingerprint; apply refuses a bound model under any other policy.

model artifacts:
  tclose fit freezes the global fit (schema, QI embedding, confidential
  distributions) into a versioned JSON artifact; tclose apply anonymizes
  any file against a saved artifact, skipping the fit pass — output is
  byte-identical to the fused anonymize run on the fitted file. tclose
  model inspect prints an artifact's provenance (version, fingerprint,
  domains) without reading any data.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.flag("help") || parsed.command.is_empty() {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = args::validate_options(&parsed) {
        // One line, nonzero exit: a typoed option must never be
        // silently ignored (it could disable a compliance policy).
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match parsed.command.as_str() {
        "generate" => commands::cmd_generate(&parsed),
        "scan" => commands::cmd_scan(&parsed),
        "anonymize" => commands::cmd_anonymize(&parsed),
        "fit" => commands::cmd_fit(&parsed),
        "apply" => commands::cmd_apply(&parsed),
        "model" => commands::cmd_model(&parsed),
        "audit" => commands::cmd_audit(&parsed),
        "serve" => serve::cmd_serve(&parsed),
        "request" => serve::cmd_request(&parsed),
        other => {
            eprintln!("error: unknown command {other:?}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            // One line, actionable, no usage dump: command-level failures
            // (bad inputs, unreadable/incompatible model artifacts) already
            // say what to fix.
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
