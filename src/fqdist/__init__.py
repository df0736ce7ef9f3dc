"""Distance-pair counting over prime fields: transforms, certificates, suites.

The package measures, exactly where possible and within stated float
tolerances otherwise, how the two-block distance pairs of finite point sets
in F_q^(k+l) distribute: the pair spectrum and its main-term discrepancy,
the surjectivity threshold, a rotation-correlation energy identity, and the
constructions that show the counting bounds are tight.  Each name is
imported from the module that defines it (README.md lists the modules).
"""
