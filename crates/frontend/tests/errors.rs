//! Error-message snapshots: the exact positioned message for each class of
//! rejected input. These strings are user-facing contract — update them
//! deliberately.

use iolb_frontend::compile;
use iolb_poly::EngineCtx;

fn error_of(src: &str) -> String {
    match compile(src) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("expected an error for:\n{src}"),
    }
}

#[test]
fn non_affine_subscript_product() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N];\n\
             for (i = 0; i < N; i++)\n\
               for (j = 0; j < N; j++)\n\
                 A[i * j] = 0;\n"
        ),
        "5:3: subscript of `A`: non-affine expression: product of two non-constant terms"
    );
}

#[test]
fn non_affine_subscript_division() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N];\n\
             for (i = 0; i < N; i++)\n\
               A[i / 2] = 0;\n"
        ),
        "4:3: subscript of `A`: non-affine expression: division is not allowed here"
    );
}

#[test]
fn non_affine_loop_bound() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N];\n\
             for (i = 0; i < N * N; i++)\n\
               A[i] = 0;\n"
        ),
        "3:17: upper bound of loop `i`: non-affine expression: product of two non-constant terms"
    );
}

#[test]
fn indirect_subscript() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N];\n\
             double idx[N];\n\
             for (i = 0; i < N; i++)\n\
               A[idx[i]] = 0;\n"
        ),
        "5:3: subscript of `A`: non-affine expression: array reference is not allowed here"
    );
}

#[test]
fn undeclared_array() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             for (i = 0; i < N; i++)\n\
               A[i] = 0;\n"
        ),
        "3:1: undeclared array `A`"
    );
}

#[test]
fn undeclared_identifier_in_value() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N];\n\
             for (i = 0; i < N; i++)\n\
               A[i] = alpha;\n"
        ),
        "4:8: undeclared identifier `alpha` (not an iterator, parameter or array)"
    );
}

#[test]
fn undeclared_parameter_in_bound() {
    assert_eq!(
        error_of(
            "double A[10];\n\
             for (i = 0; i < N; i++)\n\
               A[i] = 0;\n"
        ),
        "2:17: upper bound of loop `i`: `N` is not a surrounding iterator or declared parameter"
    );
}

#[test]
fn subscript_arity_mismatch() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N][N];\n\
             for (i = 0; i < N; i++)\n\
               A[i] = 0;\n"
        ),
        "4:1: array `A` has 2 dimensions, subscripted with 1"
    );
}

#[test]
fn iterator_shadowing() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N];\n\
             for (i = 0; i < N; i++)\n\
               for (i = 0; i < N; i++)\n\
                 A[i] = 0;\n"
        ),
        "4:1: loop iterator `i` shadows an enclosing loop"
    );
}

#[test]
fn inner_iterator_used_in_outer_bound() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N][N];\n\
             for (i = 0; i < N; i++)\n\
               for (j = 0; j < N; j++)\n\
                 A[i][j] = 0;\n\
             for (k = 0; k < N; k++)\n\
               A[k][q] = 0;\n"
        ),
        "7:6: subscript of `A`: `q` is not a surrounding iterator or declared parameter"
    );
}

#[test]
fn iterator_shadowing_an_array() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double i[N];\n\
             double A[N];\n\
             for (i = 0; i < N; i++)\n\
               A[i] = i[0];\n"
        ),
        "4:1: loop iterator `i` shadows an array"
    );
}

#[test]
fn duplicate_statement_label() {
    let _session = EngineCtx::new().enter();
    assert_eq!(
        error_of(
            "parameter N;\n\
             double A[N];\n\
             for (i = 0; i < N; i++) {\n\
               S: A[i] = 0;\n\
               S: A[i] = A[i] + 1;\n\
             }\n"
        ),
        "two statements are both named `S` (add or change a label)"
    );
}
