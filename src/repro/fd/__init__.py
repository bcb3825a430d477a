"""Functional-dependency machinery: model, engines, miners, baselines."""
