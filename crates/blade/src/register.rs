//! DataBlade registration: the SQL script BladeSmith would generate
//! (Section 6.1) and a one-call installer that "loads the shared
//! library" and runs the script — the six steps of Section 4.

use crate::curtime::{resolve_current_time, CurrentTimePolicy};
use crate::extent_type::{extent_from_value, extent_to_value, grt_time_extent_type, TYPE_NAME};
use crate::grtree_am::{GrTreeAm, GrTreeAmOptions};
use crate::rstar_am::RStarBitemporalAm;
use grt_ids::{AmContext, Database, IdsError, Value};
use grt_rstar::bitemporal::NowStrategy;
use grt_rstar::RStarOptions;
use grt_temporal::{bound_entries, Predicate};
use std::sync::Arc;

/// The purpose-function names of the GR-tree access method, in the
/// paper's Table 5 order (plus the batched-fetch extension
/// `grt_getnext_batch`).
pub const GRT_PURPOSE_FUNCTIONS: [&str; 16] = [
    "grt_create",
    "grt_drop",
    "grt_open",
    "grt_close",
    "grt_build",
    "grt_beginscan",
    "grt_rescan",
    "grt_getnext",
    "grt_getnext_batch",
    "grt_endscan",
    "grt_insert",
    "grt_delete",
    "grt_update",
    "grt_scancost",
    "grt_stats",
    "grt_check",
];

/// The strategy functions of the GR-tree operator class.
pub const GRT_STRATEGIES: [&str; 4] = ["Overlaps", "Equal", "Contains", "ContainedIn"];

/// The support functions declared in the operator class (the blade
/// hard-codes the internal-region versions, per Section 6.3, but the
/// declared UDRs are usable from SQL).
pub const GRT_SUPPORT: [&str; 3] = ["grt_union", "grt_size", "grt_intersection"];

/// The registration SQL script for the GR-tree DataBlade — the artifact
/// BladeSmith generates and BladeManager runs.
pub fn registration_script() -> String {
    let mut s = String::new();
    s.push_str("-- GR-tree DataBlade registration script (BladeSmith output)\n");
    for f in GRT_PURPOSE_FUNCTIONS {
        s.push_str(&format!(
            "CREATE FUNCTION {f}(pointer) RETURNING int \
             EXTERNAL NAME 'usr/functions/grtree.bld({f})' LANGUAGE c;\n"
        ));
    }
    for f in GRT_STRATEGIES {
        s.push_str(&format!(
            "CREATE FUNCTION {f}({TYPE_NAME}, {TYPE_NAME}) RETURNING boolean \
             EXTERNAL NAME 'usr/functions/grtree.bld({})' LANGUAGE c;\n",
            f.to_ascii_lowercase()
        ));
    }
    s.push_str(&format!(
        "CREATE FUNCTION grt_union({TYPE_NAME}, {TYPE_NAME}) RETURNING {TYPE_NAME} \
         EXTERNAL NAME 'usr/functions/grtree.bld(grt_union)' LANGUAGE c;\n"
    ));
    s.push_str(&format!(
        "CREATE FUNCTION grt_size({TYPE_NAME}) RETURNING integer \
         EXTERNAL NAME 'usr/functions/grtree.bld(grt_size)' LANGUAGE c;\n"
    ));
    s.push_str(&format!(
        "CREATE FUNCTION grt_intersection({TYPE_NAME}, {TYPE_NAME}) RETURNING integer \
         EXTERNAL NAME 'usr/functions/grtree.bld(grt_intersection)' LANGUAGE c;\n"
    ));
    s.push_str(
        "CREATE SECONDARY ACCESS_METHOD grtree_am ( \
         am_create = grt_create, am_drop = grt_drop, am_open = grt_open, \
         am_close = grt_close, am_build = grt_build, am_beginscan = grt_beginscan, \
         am_rescan = grt_rescan, am_getnext = grt_getnext, \
         am_getnext_batch = grt_getnext_batch, am_endscan = grt_endscan, \
         am_insert = grt_insert, am_delete = grt_delete, am_update = grt_update, \
         am_scancost = grt_scancost, am_stats = grt_stats, am_check = grt_check, \
         am_sptype = 'S' );\n",
    );
    s.push_str(
        "CREATE OPCLASS grt_opclass FOR grtree_am \
         STRATEGIES(Overlaps, Equal, Contains, ContainedIn) \
         SUPPORT(grt_union, grt_size, grt_intersection);\n",
    );
    s
}

/// The un-registration script (what BladeManager runs when a DataBlade
/// is removed — "during testing it has to be registered and
/// un-registered multiple times", Section 6.1).
pub fn unregistration_script() -> String {
    let mut s = String::new();
    s.push_str("-- GR-tree DataBlade un-registration script\n");
    s.push_str("DROP OPCLASS grt_opclass;\n");
    s.push_str("DROP SECONDARY ACCESS_METHOD grtree_am;\n");
    for f in GRT_STRATEGIES {
        s.push_str(&format!("DROP FUNCTION {f};\n"));
    }
    for f in GRT_SUPPORT {
        s.push_str(&format!("DROP FUNCTION {f};\n"));
    }
    for f in GRT_PURPOSE_FUNCTIONS {
        s.push_str(&format!("DROP FUNCTION {f};\n"));
    }
    s
}

/// Un-registers the GR-tree DataBlade's routines (indexes using
/// `grtree_am` must be dropped first, as BladeManager requires).
pub fn uninstall_grtree_blade(db: &Database) -> Result<(), IdsError> {
    let conn = db.connect();
    conn.exec_script(&unregistration_script())?;
    Ok(())
}

fn purpose_stub(name: &str) -> grt_ids::udr::RoutineFn {
    let name = name.to_string();
    Arc::new(move |_args: &[Value], _ctx: &AmContext| {
        Err(IdsError::Routine(format!(
            "{name} is an access-method purpose function and is invoked \
             through the Virtual-Index Interface"
        )))
    })
}

fn strategy_impl(pred: Predicate) -> grt_ids::udr::RoutineFn {
    Arc::new(move |args: &[Value], ctx: &AmContext| {
        let [a, b] = args else {
            return Err(IdsError::Type("strategy functions take two extents".into()));
        };
        let left = extent_from_value(a)?;
        let right = extent_from_value(b)?;
        let ct = resolve_current_time(CurrentTimePolicy::PerStatement, ctx);
        Ok(Value::Bool(pred.eval(&left, &right, ct)))
    })
}

fn install_symbols(db: &Database) {
    for f in GRT_PURPOSE_FUNCTIONS {
        db.install_symbol(&format!("usr/functions/grtree.bld({f})"), purpose_stub(f));
    }
    for (name, pred) in [
        ("overlaps", Predicate::Overlaps),
        ("equal", Predicate::Equal),
        ("contains", Predicate::Contains),
        ("containedin", Predicate::ContainedIn),
    ] {
        db.install_symbol(
            &format!("usr/functions/grtree.bld({name})"),
            strategy_impl(pred),
        );
    }
    db.install_symbol(
        "usr/functions/grtree.bld(grt_union)",
        Arc::new(|args: &[Value], ctx: &AmContext| {
            let [a, b] = args else {
                return Err(IdsError::Type("grt_union(extent, extent)".into()));
            };
            let (left, right) = (extent_from_value(a)?, extent_from_value(b)?);
            let ct = resolve_current_time(CurrentTimePolicy::PerStatement, ctx);
            let bound = bound_entries(&[left.spec(), right.spec()], ct);
            // The union of two *stored* extents is encodable as an
            // extent whenever the bound carries no flags; a flagged
            // bound is approximated by its fixed resolution.
            let extent = grt_temporal::TimeExtent::from_parts(
                bound.tt_begin,
                bound.tt_end,
                bound.vt_begin,
                if bound.rect || bound.hidden {
                    grt_temporal::VtEnd::Ground(bound.resolve(ct).mbr().vt2)
                } else {
                    bound.vt_end
                },
            )
            .map_err(|e| IdsError::Type(e.to_string()))?;
            Ok(extent_to_value(&extent))
        }),
    );
    db.install_symbol(
        "usr/functions/grtree.bld(grt_size)",
        Arc::new(|args: &[Value], ctx: &AmContext| {
            let [a] = args else {
                return Err(IdsError::Type("grt_size(extent)".into()));
            };
            let extent = extent_from_value(a)?;
            let ct = resolve_current_time(CurrentTimePolicy::PerStatement, ctx);
            Ok(Value::Int(extent.region(ct).area() as i64))
        }),
    );
    db.install_symbol(
        "usr/functions/grtree.bld(grt_intersection)",
        Arc::new(|args: &[Value], ctx: &AmContext| {
            let [a, b] = args else {
                return Err(IdsError::Type("grt_intersection(extent, extent)".into()));
            };
            let (left, right) = (extent_from_value(a)?, extent_from_value(b)?);
            let ct = resolve_current_time(CurrentTimePolicy::PerStatement, ctx);
            Ok(Value::Int(
                left.region(ct).intersection_area(&right.region(ct)) as i64,
            ))
        }),
    );
}

/// Installs the GR-tree DataBlade: loads the "shared library", declares
/// the opaque type, and runs the registration script. Returns the
/// script that was executed.
pub fn install_grtree_blade(db: &Database, opts: GrTreeAmOptions) -> Result<String, IdsError> {
    db.install_opaque_type(grt_time_extent_type());
    install_symbols(db);
    db.install_library("grtree.bld", Arc::new(GrTreeAm::new(opts)));
    let script = registration_script();
    let conn = db.connect();
    conn.exec_script(&script)?;
    Ok(script)
}

/// The purpose functions the baseline R\*-tree access method declares.
const RST_PURPOSE_FUNCTIONS: [&str; 5] = [
    "rst_create",
    "rst_drop",
    "rst_build",
    "rst_getnext",
    "rst_getnext_batch",
];

/// The registration script for the baseline R\*-tree access method over
/// the same opaque type.
pub fn rstar_registration_script() -> String {
    let mut s = String::new();
    s.push_str("-- R*-tree baseline access method registration script\n");
    for f in RST_PURPOSE_FUNCTIONS {
        s.push_str(&format!(
            "CREATE FUNCTION {f}(pointer) RETURNING int \
             EXTERNAL NAME 'usr/functions/rstar.bld({f})' LANGUAGE c;\n"
        ));
    }
    s.push_str(
        "CREATE SECONDARY ACCESS_METHOD rstar_am ( \
         am_create = rst_create, am_drop = rst_drop, am_build = rst_build, \
         am_getnext = rst_getnext, am_getnext_batch = rst_getnext_batch, \
         am_sptype = 'S' );\n",
    );
    s.push_str(
        "CREATE OPCLASS rstar_opclass FOR rstar_am \
         STRATEGIES(Overlaps, Equal, Contains, ContainedIn);\n",
    );
    s
}

/// Installs the baseline R\*-tree access method (requires the GR-tree
/// blade's strategy functions; install it first or this installer adds
/// them).
pub fn install_rstar_blade(
    db: &Database,
    strategy: NowStrategy,
    tree_opts: RStarOptions,
) -> Result<String, IdsError> {
    db.install_opaque_type(grt_time_extent_type());
    if !db.function_exists("Overlaps") {
        install_symbols(db);
        let conn = db.connect();
        for f in GRT_STRATEGIES {
            conn.exec(&format!(
                "CREATE FUNCTION {f}({TYPE_NAME}, {TYPE_NAME}) RETURNING boolean \
                 EXTERNAL NAME 'usr/functions/grtree.bld({})' LANGUAGE c",
                f.to_ascii_lowercase()
            ))?;
        }
    }
    for f in RST_PURPOSE_FUNCTIONS {
        db.install_symbol(&format!("usr/functions/rstar.bld({f})"), purpose_stub(f));
    }
    db.install_library(
        "rstar.bld",
        Arc::new(RStarBitemporalAm {
            strategy,
            tree_opts,
            curtime: CurrentTimePolicy::PerStatement,
        }),
    );
    let script = rstar_registration_script();
    let conn = db.connect();
    conn.exec_script(&script)?;
    Ok(script)
}
