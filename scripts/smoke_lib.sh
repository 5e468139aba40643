# smoke_lib.sh — the steps the smoke scripts share. Source it from the
# repo root after setting $tmp (a scratch directory) and $smoke (the
# name error messages start with):
#
#   smoke_corpus          build $tmp/flightgen and generate the six 14 s
#                         benign -fast training flights into $tmp/train
#   smoke_train [FLAGS]   build $tmp/soundboost with go build FLAGS, then
#                         train $tmp/model.json and calibrate
#                         $tmp/analyzer.json on $tmp/train
#   wait_healthz ADDR WHAT [PID [LOG]]
#                         poll http://ADDR/v1/healthz until it answers;
#                         fail naming WHAT after 20 s, or at once if PID
#                         has exited (printing LOG)

smoke_corpus() {
    go build -o "$tmp/flightgen" ./cmd/flightgen
    seed=1
    for mission in hover dash column; do
        for rep in 1 2; do
            "$tmp/flightgen" -fast -out "$tmp/train" -mission "$mission" \
                -seconds 14 -seed $seed -name "$mission-benign-$seed"
            seed=$((seed + 7))
        done
    done
}

smoke_train() {
    go build "$@" -o "$tmp/soundboost" ./cmd/soundboost
    "$tmp/soundboost" train -flights "$tmp/train" -model "$tmp/model.json" \
        -hidden 48 -epochs 100 -augment 0
    "$tmp/soundboost" calibrate -model "$tmp/model.json" \
        -calib "$tmp/train" -out "$tmp/analyzer.json"
}

wait_healthz() {
    i=0
    while [ $i -lt 100 ]; do
        if curl -fsS "http://$1/v1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        if [ -n "${3:-}" ] && ! kill -0 "$3" 2>/dev/null; then
            echo "$smoke: $2 exited before becoming ready" >&2
            if [ -n "${4:-}" ]; then cat "$4" >&2; fi
            exit 1
        fi
        sleep 0.2
        i=$((i + 1))
    done
    echo "$smoke: $2 never became ready on $1" >&2
    exit 1
}
