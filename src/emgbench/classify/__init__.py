"""From-scratch classifiers (`lda`, `svm`, `knn`, `tree`, `ensembles`),
their shared plumbing and model-file codec (`base`), and the named
benchmark pipelines (`pipeline`)."""
