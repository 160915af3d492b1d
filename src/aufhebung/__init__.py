"""Exact skeleton/coskeleton engine for finitely presented complexes on
the simplex, cube, globe and cyclic shape categories."""

from .bounds import (
    BoundClaim,
    Certificate,
    build_counterexample,
    build_cubical_counterexample,
    build_cyclic_counterexample,
    build_globular_counterexample,
    build_simplicial_counterexample,
    certify,
    claimed_upper,
    random_skeletal_complex,
    underlying_simplicial,
)
from .complexes import Cell, GeneratorDecl, SkeletalComplex, TabulatedPresheaf
from .fileio import load_complex, parse_complex, parse_sphere, save_complex, serialize_complex
from .fillers import (
    AlgorithmViolation,
    FillResult,
    Sphere,
    VerificationReport,
    boundary,
    brute_force_fill,
    constructive_filler,
    constructive_filler_cubical,
    constructive_filler_globular,
    constructive_filler_simplicial,
    coskeletal_up_to,
    is_sphere,
    make_sphere,
    sphere_profile,
)
from .shapes import (
    CubeMorphism,
    CyclicMorphism,
    GlobeMorphism,
    SimplexMorphism,
    compose,
    enumerate_epis,
    epi_mono_factor,
    format_morphism,
    identity,
    normalize,
    sections_of,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmViolation", "BoundClaim", "Cell", "Certificate", "CubeMorphism",
    "CyclicMorphism", "FillResult", "GeneratorDecl", "GlobeMorphism",
    "SimplexMorphism", "SkeletalComplex", "Sphere", "TabulatedPresheaf",
    "VerificationReport", "boundary", "brute_force_fill",
    "build_counterexample", "build_cubical_counterexample",
    "build_cyclic_counterexample", "build_globular_counterexample",
    "build_simplicial_counterexample", "certify", "claimed_upper", "compose",
    "constructive_filler", "constructive_filler_cubical",
    "constructive_filler_globular", "constructive_filler_simplicial",
    "coskeletal_up_to", "enumerate_epis", "epi_mono_factor",
    "format_morphism", "identity", "is_sphere",
    "load_complex", "make_sphere", "normalize", "parse_complex", "parse_sphere", "random_skeletal_complex",
    "save_complex", "sections_of", "serialize_complex", "sphere_profile",
    "underlying_simplicial",
]
